"""Edit distance, KL divergence, and optimal-transport distances."""

import functools
import importlib.machinery
import math
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

import dmeter
from dmeter import distance
from dmeter.distance import (
    _HIGHS_LARGE_COST,
    Distribution,
    _transport_constraints,
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

    @pytest.mark.parametrize("make, message", [
        (lambda: Distribution(["a", "b"], [1.0]), "2 support items for 1 probabilities"),
        (lambda: Distribution(["a", "b"], [1.5, -0.5]), "must be non-negative"),
        (lambda: Distribution(["a", "b"], [0.5, 0.4]), "sum to 0.9, expected 1"),
        (lambda: Distribution([], []), "sum to 0.0, expected 1"),
        (lambda: Distribution.from_counts({"a": 0}), "positive total"),
        # NaN slips past the sign and sum checks: their comparisons are False for it.
        (lambda: Distribution(["a", "b"], [math.nan, 1.0]), "^probabilities must be finite$"),
        (lambda: Distribution(["a", "b"], [math.inf, 1.0]), "^probabilities must be finite$"),
        (lambda: Distribution(["a", "b"], [-math.inf, 1.0]), "^probabilities must be finite$"),
        (lambda: Distribution.from_counts({"a": 1, "b": math.nan}),
         "^count of 'b' is nan; must be finite$"),
        (lambda: Distribution.from_counts({"a": 1, "b": math.inf}),
         "^count of 'b' is inf; must be finite$"),
    ], ids=["length-mismatch", "negative", "sum", "empty", "zero-counts", "nan", "inf", "-inf",
            "nan-count", "inf-count"])
    def test_malformed_distribution_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("count, message", [
        (True, "^count of 'a' is True; must be a number, not a bool$"),
        (False, "^count of 'a' is False; must be a number, not a bool$"),
        (np.True_, "^count of 'a' is True; must be a number, not a bool$"),
        (10**400, "^count of 'a' is past the float range$"),
        (-10**400, "^count of 'a' is past the float range$"),
    ], ids=["true", "false", "numpy-bool", "int-past-float", "negative-int-past-float"])
    def test_count_that_is_no_finite_number_is_named(self, count, message):
        with pytest.raises(ValueError, match=message):
            Distribution.from_counts({"a": count, "b": 3})

    @pytest.mark.parametrize("counts, probs", [
        ({"a": 1e308, "b": 1e308}, {"a": 0.5, "b": 0.5}),
        ({"a": 10**308, "b": 0, "c": 10**308}, {"a": 0.5, "b": 0.0, "c": 0.5}),
        (dict.fromkeys("abcd", sys.float_info.max), dict.fromkeys("abcd", 0.25)),
    ], ids=["floats", "ints-and-a-zero", "float-max"])
    def test_counts_summing_past_the_float_range_are_normalized(self, counts, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Distribution.from_counts(counts).as_dict() == probs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1.0, sys.float_info.max)), min_size=1,
                    max_size=8), st.integers(1, 60))
    def test_probabilities_do_not_move_with_a_power_of_two_scale(self, counts, k):
        assume(any(counts))
        counts = {str(i): c for i, c in enumerate(counts)}
        probs = Distribution.from_counts(counts).as_dict()
        assert Distribution.from_counts(
            {i: math.ldexp(c, -k) for i, c in counts.items()}).as_dict() == probs
        try:
            total = math.fsum(counts.values())
        except OverflowError:
            return
        # In range, the counts are divided by their total as they are.
        assert probs == {i: c / total for i, c in counts.items()}


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

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        p = Distribution(["a"], [1.0])
        q = Distribution(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError, match="smoothing must be a finite number >= 0"):
            kl_divergence(p, q, smoothing=smoothing)

    def test_ratio_past_the_float_range_keeps_a_finite_divergence(self):
        # p_a * q'_total / q'_a = 1 / 5e-324 overflows; its log does not.
        p = Distribution(["a"], [1.0])
        q = Distribution(["a", "b"], [5e-324, 1.0])
        assert kl_divergence(p, q, smoothing=0) == -math.log(5e-324)

    def test_smoothing_whose_total_passes_the_float_range(self):
        # Masses of 1e308 + q_i sum past the float range; q' is uniform.
        p = Distribution(["a", "b"], [0.25, 0.75])
        q = Distribution(["a"], [1.0])
        want = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
        assert kl_divergence(p, q, smoothing=1e308) == pytest.approx(want, rel=1e-12)


def direct_kl_divergence(p, q, smoothing):
    """kl_divergence as it was before its overflow routes, or None where its
    total or a ratio passed the float range: the oracle for in-range inputs."""
    union = list(p.support)
    seen = set(union)
    union.extend(item for item in q.support if item not in seen)
    p_map, q_map = p.as_dict(), q.as_dict()
    q_masses = [q_map.get(item, 0.0) + smoothing for item in union]
    try:
        q_total = math.fsum(q_masses)
    except OverflowError:
        return None
    terms = []
    for item, q_mass in zip(union, q_masses):
        p_i = p_map.get(item, 0.0)
        if p_i == 0.0:
            continue
        if q_mass == 0.0:
            return math.inf
        ratio = p_i * q_total / q_mass
        if ratio == math.inf:
            return None
        terms.append(p_i * math.log(ratio))
    return max(0.0, math.fsum(terms))


_KL_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 1e-9, 0.5, 1.0, 3.0, 1e300])


@st.composite
def _weighted_distributions(draw):
    items = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(_KL_WEIGHTS, min_size=len(items), max_size=len(items)))
    if not any(weights):
        weights[0] = 1.0
    return Distribution.from_counts(dict(zip(items, weights)))


@settings(max_examples=300, deadline=None)
@given(_weighted_distributions(), _weighted_distributions(),
       st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 1.0, 1e300, 1e308, 1.7e308]))
def test_kl_divergence_keeps_the_direct_formulas_bits_in_range(p, q, smoothing):
    want = direct_kl_divergence(p, q, smoothing)
    assume(want is not None)
    assert kl_divergence(p, q, smoothing) == want


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

    @pytest.mark.parametrize("xs, ys", [
        ([math.nan], [1.0]),
        ([math.inf], [math.inf]),
        ([1.0, 2.0], [0.0, -math.inf]),
        ([0.0, 1.0], [math.nan, math.nan]),
    ], ids=["nan", "inf-both", "-inf", "nan-both"])
    def test_non_finite_sample_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="^samples must be finite$"):
            emd_1d(xs, ys)

    @pytest.mark.parametrize("xs, ys, distance", [
        ([1.5e308, 1.5e308], [0.0, 0.0], 1.5e308),  # the sum of the differences overflows
        ([1e308, 0.0], [-1e308, 0.0], 1e308),  # each difference overflows... once sorted, not
        ([sys.float_info.max, 0.0], [-sys.float_info.max, 0.0], sys.float_info.max),
        ([1e308], [-1e308], math.inf),  # 2e308 itself is past the float range
    ], ids=["sum", "sorted-differences", "float-max", "past-the-range"])
    def test_distance_whose_sum_passes_the_float_range(self, xs, ys, distance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert emd_1d(xs, ys) == distance

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distance_scales_with_a_power_of_two_to_the_float_range(self, data):
        # Magnitudes from 2**-900 to 2**1000, so that neither 2**k nor the
        # rescale makes a subnormal; k is often the largest that keeps every
        # sample finite, or a few less, where the differences overflow.
        sample = st.one_of(st.just(0.0), st.floats(2.0**-900, 2.0**1000),
                           st.floats(-(2.0**1000), -(2.0**-900)))
        n = data.draw(st.integers(1, 8), label="n")
        xs = data.draw(st.lists(sample, min_size=n, max_size=n), label="xs")
        ys = data.draw(st.lists(sample, min_size=n, max_size=n), label="ys")
        top = 1024 - math.frexp(max(map(abs, xs + ys)))[1]  # 2**k * |sample| < 2**1024
        k = data.draw(st.integers(max(0, top - 4), top) | st.integers(0, top), label="k")
        here = emd_1d(xs, ys)
        assert here == float(np.mean(np.abs(np.sort(xs) - np.sort(ys))))  # in range: its bits
        try:
            want = math.ldexp(here, k)
        except OverflowError:
            want = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert emd_1d([math.ldexp(x, k) for x in xs], [math.ldexp(y, k) for y in ys]) == want


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

    def test_costs_highs_reads_as_infinite_are_solved_scaled(self):
        rng = np.random.default_rng(7)
        p, q = random_distribution(rng, 4), random_distribution(rng, 5)
        costs = rng.uniform(0.0, 1.0, (4, 5))
        want = emd_discrete(p, q, costs)
        for scale in (1e15, 1e19, 1e20, 1e100, 1e308):
            assert emd_discrete(p, q, costs * scale) == pytest.approx(want * scale, rel=1e-12)

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

    def test_euclidean_costs_past_1e154_stay_finite(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        small = EmbeddingMatrix(["x", "y", "z"], rows)
        huge = EmbeddingMatrix(["x", "y", "z"], rows * 1e200)
        for a, b in ((["x"], ["y"]), (["x", "z"], ["y"]), (["x", "z"], ["y", "y", "x"])):
            want = word_movers_distance(a, b, small).distance * 1e200
            assert word_movers_distance(a, b, huge).distance == pytest.approx(want, rel=1e-12)

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


# Problems on which HiGHS's presolve sums the objective in another order:
# one side a single point, ties among rounded costs, costs past 1.
_COST_KINDS = ("uniform", "times ten", "rounded")


@st.composite
def _transport_problems(draw, max_size):
    """(p, q, costs) with count supports of 1 to max_size points, one side
    sometimes a single point, and costs uniform on [0, 3), ten times that, or
    rounded to the integers 0..4."""
    sizes = st.lists(st.integers(1, 5), min_size=1, max_size=max_size)
    p_counts, q_counts = draw(sizes), draw(sizes)
    single = draw(st.sampled_from([None, "p", "q"]))
    if single == "p":
        p_counts = p_counts[:1]
    elif single == "q":
        q_counts = q_counts[:1]
    p = Distribution.from_counts({f"p{i}": c for i, c in enumerate(p_counts)})
    q = Distribution.from_counts({f"q{j}": c for j, c in enumerate(q_counts)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(_COST_KINDS))
    if kind == "rounded":
        costs = np.round(rng.uniform(0.0, 4.0, size=(len(p), len(q))))
    else:
        costs = rng.uniform(0.0, 3.0, size=(len(p), len(q))) * (10.0 if kind == "times ten" else 1.0)
    return p, q, costs


def _linprog_objective(p, q, costs, **options):
    """The transport LP of emd_discrete, solved by linprog over the looped
    constraint matrix, with any HiGHS options given."""
    b_eq = np.concatenate([np.asarray(p.probs), np.asarray(q.probs[: len(q) - 1])])
    res = linprog(costs.ravel(), A_eq=looped_transport_constraints(len(p), len(q)), b_eq=b_eq,
                  bounds=(0, None), method="highs", options=options)
    return float(res.fun)


@settings(max_examples=60, deadline=None)
@given(_transport_problems(max_size=5))
def test_emd_matches_looped_constraint_solve(problem):
    p, q, costs = problem
    column = {item: j for j, item in enumerate(q.support)}
    row = {item: i for i, item in enumerate(p.support)}

    def cost(a, b):
        return costs[row[a], column[b]]

    assert emd_discrete(p, q, cost) == _linprog_objective(p, q, costs, presolve=False)


def test_transport_constraints_match_looped_builder():
    # m == 1 included: no column constraint is left.
    for n in range(1, 31):
        for m in range(1, 31):
            indptr, indices = _transport_constraints(n, m)
            want = looped_transport_constraints(n, m).tocsc()
            assert want.shape == (n + m - 1, n * m)
            assert np.array_equal(want.data, np.ones(indices.size)), (n, m)
            assert np.array_equal(indptr, want.indptr), (n, m)
            assert np.array_equal(indices, want.indices), (n, m)


@settings(max_examples=100, deadline=None)
@given(_transport_problems(max_size=40), st.sampled_from([1.0, 1e15, 1e19, 1e100, 1e300]))
def test_emd_matches_looped_constraint_solve_of_rescaled_costs(problem, scale):
    # Doc-pairs-sized supports; costs of 1e15 and up, near and past what HiGHS
    # reads as infinite, go through the power-of-two rescale, which the oracle
    # repeats.
    p, q, costs = problem
    costs = costs * scale
    peak = costs.max()
    exponent = math.frexp(peak)[1] if peak >= _HIGHS_LARGE_COST else 0
    want = _linprog_objective(p, q, np.ldexp(costs, -exponent), presolve=False)
    assert emd_discrete(p, q, costs) == math.ldexp(want, exponent)


def test_emd_matches_presolve_off_where_presolve_on_differs_in_the_last_bit():
    # Default linprog (presolve on) gives 4.2441257836936845 here, one ulp
    # above the presolve-off objective 4.244125783693684.
    p = Distribution(["p"], [1.0])
    q = Distribution.from_counts({f"q{j}": j % 5 + 1 for j in range(31)})
    costs = np.sqrt(np.arange(31.0) + 3.0)[None, :]
    assert emd_discrete(p, q, costs) == _linprog_objective(p, q, costs, presolve=False)


@settings(max_examples=100, deadline=None)
@given(_transport_problems(max_size=40))
def test_emd_stays_within_rounding_of_default_linprog(problem):
    # Presolve on and off reach the same optimum; only the order in which the
    # objective is summed differs.
    p, q, costs = problem
    want = _linprog_objective(p, q, costs)
    assert abs(emd_discrete(p, q, costs) - want) <= 1e-15 * abs(want)


def test_failed_transport_solve_names_the_solver_message(monkeypatch):
    from scipy.optimize._highspy import _core

    class Unsolved(_core._Highs):
        def getModelStatus(self):
            return _core.HighsModelStatus.kSolveError

    monkeypatch.setattr(_core, "_Highs", Unsolved)
    p, q = Distribution(["a", "b"], [0.5, 0.5]), Distribution(["c"], [1.0])
    with pytest.raises(RuntimeError) as info:
        emd_discrete(p, q, np.ones((2, 1)))
    assert str(info.value) == "transport solve failed: Solve error"


# --- one solver per thread against a fresh solver per solve ----------------------


def _fresh_solve(p, q, costs):
    """emd_discrete on a solver built for this call alone."""
    distance._HIGHS_SOLVERS.solver = None
    return emd_discrete(p, q, costs)


def _above_bound_problem():
    """A transport problem of one flow more than a thread keeps its solver after."""
    m = 100
    n = distance._HIGHS_KEEP_FLOWS // m + 1
    rng = np.random.default_rng(3)
    p = Distribution.from_counts({f"p{i}": c for i, c in enumerate(rng.integers(1, 6, n))})
    q = Distribution.from_counts({f"q{j}": c for j, c in enumerate(rng.integers(1, 6, m))})
    return p, q, rng.uniform(0.0, 3.0, (n, m))


def _assert_kept_solver_holds_no_model():
    solver = distance._HIGHS_SOLVERS.solver
    assert (solver.getNumCol(), solver.getNumRow()) == (0, 0)
    assert solver.getOptionValue("presolve")[1] == "off"
    assert solver.getOptionValue("log_to_console")[1] is False


def _failing_solver_class(core):
    """A _Highs class whose getModelStatus reports a solve error once per
    count its `failures` holds, and the true status after."""
    class Failing(core._Highs):
        failures = 0

        def getModelStatus(self):
            if Failing.failures:
                Failing.failures -= 1
                return core.HighsModelStatus.kSolveError
            return super().getModelStatus()
    return Failing


@settings(max_examples=40, deadline=None)
@given(st.lists(_transport_problems(max_size=40), min_size=1, max_size=6),
       st.sampled_from(["nothing", "a failed solve", "an above-bound solve"]))
def test_reused_solver_matches_a_fresh_solver(problems, before):
    from scipy.optimize._highspy import _core

    want = [_fresh_solve(*problem) for problem in problems]
    failing = _failing_solver_class(_core)
    with mock.patch.object(_core, "_Highs", failing):
        _fresh_solve(*problems[0])  # a kept solver of the class the solves below take
        if before == "a failed solve":
            failing.failures = 1
            with pytest.raises(RuntimeError, match="^transport solve failed: Solve error$"):
                emd_discrete(*problems[0])
        elif before == "an above-bound solve":
            emd_discrete(*_above_bound_problem())
        kept = distance._HIGHS_SOLVERS.solver
        got = [emd_discrete(*problem) for problem in problems]
        assert distance._HIGHS_SOLVERS.solver is not None
        if kept is not None:
            assert distance._HIGHS_SOLVERS.solver is kept
    assert got == want


def test_thread_keeps_its_solver_only_after_an_lp_within_the_bound():
    p, q, costs = _above_bound_problem()
    at_bound = Distribution.from_counts(dict(zip(p.support[:-1], range(1, len(p)))))
    emd_discrete(at_bound, q, costs[:-1])
    solver = distance._HIGHS_SOLVERS.solver
    assert len(at_bound) * len(q) == distance._HIGHS_KEEP_FLOWS
    assert type(solver) is distance._highs()._Highs
    _assert_kept_solver_holds_no_model()
    assert emd_discrete(p, q, costs) == _fresh_solve(p, q, costs)
    assert distance._HIGHS_SOLVERS.solver is None
    emd_discrete(Distribution(["a"], [1.0]), q, costs[:1])
    assert type(distance._HIGHS_SOLVERS.solver) is distance._highs()._Highs
    _assert_kept_solver_holds_no_model()


def test_patched_solver_class_is_replaced_once_unpatched(monkeypatch):
    from scipy.optimize._highspy import _core

    real = _core._Highs
    p, q, costs = Distribution(["a", "b"], [0.5, 0.5]), Distribution(["c"], [1.0]), np.ones((2, 1))
    emd_discrete(p, q, costs)
    failing = _failing_solver_class(_core)
    failing.failures = 1
    monkeypatch.setattr(_core, "_Highs", failing)
    with pytest.raises(RuntimeError):
        emd_discrete(p, q, costs)
    assert type(distance._HIGHS_SOLVERS.solver) is failing
    _assert_kept_solver_holds_no_model()
    monkeypatch.setattr(_core, "_Highs", real)
    assert emd_discrete(p, q, np.array([[2.0], [4.0]])) == 3.0
    assert type(distance._HIGHS_SOLVERS.solver) is real


def test_threads_solving_interleaved_problems_each_get_the_serial_objectives():
    # More threads than cores, switching as often as the interpreter allows,
    # each solving the problems from its own starting point in lockstep.
    rng = np.random.default_rng(17)
    problems = []
    for n, m in [(1, 4), (3, 3), (7, 5), (12, 20), (30, 33), (5, 1)]:
        p = Distribution.from_counts({i: c for i, c in enumerate(rng.integers(1, 9, n))})
        q = Distribution.from_counts({j: c for j, c in enumerate(rng.integers(1, 9, m))})
        problems.append((p, q, rng.uniform(0.0, 3.0, (n, m))))
    serial = [_fresh_solve(*problem) for problem in problems]
    main_solver = distance._HIGHS_SOLVERS.solver
    n_threads, rounds = 4, 5
    step = threading.Barrier(n_threads, timeout=60)
    got, solvers = [None] * n_threads, [None] * n_threads

    def solve_all(t):
        order = [(t + k) % len(problems) for k in range(len(problems))]
        out = {}
        for _ in range(rounds):
            for k in order:
                step.wait()
                out.setdefault(k, []).append(emd_discrete(*problems[k]))
        got[t], solvers[t] = out, distance._HIGHS_SOLVERS.solver

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve_all, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in got:
        assert out == {k: [want] * rounds for k, want in enumerate(serial)}
    assert len({id(solver) for solver in solvers}) == n_threads
    assert all(type(solver) is distance._highs()._Highs for solver in solvers)
    assert distance._HIGHS_SOLVERS.solver is main_solver


def test_transport_solve_writes_nothing(capfd):
    # HiGHS logs to stdout unless told not to.
    p = Distribution(["a", "b"], [0.25, 0.75])
    q = Distribution(["c", "d", "e"], [0.5, 0.25, 0.25])
    assert emd_discrete(p, q, np.arange(6.0).reshape(2, 3)) > 0
    assert word_movers_distance(["cat", "wall"], ["dog", "stone", "stone"],
                                toy_embedding()).distance > 0
    assert capfd.readouterr() == ("", "")


# --- loading the HiGHS bindings without scipy.optimize ---------------------------


def _fresh_interpreter(code: str) -> list[str]:
    """Lines that code prints in a new interpreter that imports this dmeter."""
    env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.splitlines()


def test_wmd_leaves_scipy_optimize_unloaded_and_its_solvers_working():
    # scipy.optimize, imported after the bindings were loaded alone, takes
    # them over from sys.modules and its HiGHS solvers still work.
    code = """if True:
        import sys
        from dmeter.distance import word_movers_distance
        from dmeter.vectors import EmbeddingMatrix
        emb = EmbeddingMatrix(["cat", "dog", "stone"], [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        print(word_movers_distance(["cat", "stone"], ["dog"], emb).distance > 0)
        print("scipy.optimize" in sys.modules)
        loaded = sys.modules["scipy.optimize._highspy._core"]
        from scipy.optimize import LinearConstraint, linprog, milp
        from scipy.optimize._highspy import _highs_wrapper
        print(linprog([-1, -1], A_ub=[[2, 2]], b_ub=[3], method="highs").fun)
        print(milp([-1, -1], constraints=LinearConstraint([[2, 2]], ub=3), integrality=[1, 1]).fun)
        print(sys.modules["scipy.optimize._highspy._core"] is loaded is _highs_wrapper._h)
    """
    assert _fresh_interpreter(code) == ["True", "False", "-1.5", "-1.0", "True"]


def test_emd_reuses_bindings_that_scipy_optimize_loaded():
    code = """if True:
        import sys
        {first}
        import numpy as np
        from dmeter.distance import Distribution, _highs, emd_discrete
        rng = np.random.default_rng(5)
        for n, m in [(1, 4), (3, 3), (7, 5), (12, 20)]:
            p = Distribution.from_counts({{i: c for i, c in enumerate(rng.integers(1, 9, n))}})
            q = Distribution.from_counts({{j: c for j, c in enumerate(rng.integers(1, 9, m))}})
            print(repr(emd_discrete(p, q, rng.uniform(0.0, 3.0, (n, m)))))
        print(_highs() is sys.modules["scipy.optimize._highspy._core"])
        print("scipy.optimize" in sys.modules)
    """
    after = _fresh_interpreter(code.format(first="import scipy.optimize"))
    alone = _fresh_interpreter(code.format(first=""))
    assert after[-2:] == ["True", "True"] and alone[-2:] == ["True", "False"]
    assert after[:-2] == alone[:-2]


def test_concurrent_first_calls_load_the_bindings_once():
    # The finder is slowed so that both threads reach it unless the load is
    # serialised.
    code = """if True:
        import importlib.machinery, threading, time
        from dmeter import distance
        find_spec, calls = importlib.machinery.PathFinder.find_spec, []
        def slow_find_spec(name, path=None, target=None):
            if name == distance._HIGHS_MODULE:
                calls.append(name)
                time.sleep(0.2)
            return find_spec(name, path, target)
        importlib.machinery.PathFinder.find_spec = slow_find_spec
        start, loaded = threading.Barrier(2), []
        def first_call():
            start.wait()
            loaded.append(distance._highs())
        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(len(calls), loaded[0] is loaded[1])
    """
    assert _fresh_interpreter(code) == ["1 True"]


def _no_spec(name, path=None, target=None):
    return None


def test_bindings_fall_back_to_the_plain_import_without_a_spec(monkeypatch):
    # A scipy layout without the extension file: the plain import runs, so
    # whatever it gives or raises is what emd_discrete gives or raises.
    core = sys.modules[distance._HIGHS_MODULE]
    package = sys.modules["scipy.optimize._highspy"]
    monkeypatch.delitem(sys.modules, distance._HIGHS_MODULE)
    monkeypatch.delattr(package, "_core", raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", _no_spec)
    p, q = Distribution(["a", "b"], [0.25, 0.75]), Distribution(["c"], [1.0])
    with pytest.raises(ImportError) as plain:
        from scipy.optimize._highspy import _core  # noqa: F401
    with pytest.raises(ImportError) as fallback:
        emd_discrete(p, q, np.ones((2, 1)))
    assert (type(fallback.value), str(fallback.value)) == (type(plain.value), str(plain.value))

    monkeypatch.setattr(package, "_core", core, raising=False)
    assert distance._highs() is core
    assert emd_discrete(p, q, np.array([[2.0], [4.0]])) == 3.5


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_wmd_cosine_over_rows_whose_dots_overflow_or_underflow(dim, seed):
    # Each row scaled far from 1: the array route and the callback agree, and
    # both give the cosine distances of the unscaled rows.
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((6, dim))
    scales = rng.choice([1e-200, 1e-160, 1.0, 1e160, 1e200], size=(6, 1))
    words = [f"w{i}" for i in range(6)]
    extreme, plain = EmbeddingMatrix(words, vectors * scales), EmbeddingMatrix(words, vectors)
    doc_a, doc_b = list(rng.choice(words, size=4)), list(rng.choice(words, size=3))
    got = word_movers_distance(doc_a, doc_b, extreme, "cosine").distance
    assert got == callback_wmd(doc_a, doc_b, extreme, "cosine")
    assert got == pytest.approx(word_movers_distance(doc_a, doc_b, plain, "cosine").distance,
                                rel=1e-9, abs=1e-12)


def test_wmd_cosine_of_overflowing_rows_is_their_angle():
    emb = EmbeddingMatrix(["x", "y"], [[1e200, 0.0], [1e200, 1e200]])
    assert word_movers_distance(["x"], ["y"], emb, "cosine").distance == pytest.approx(
        1.0 - math.sqrt(0.5))
