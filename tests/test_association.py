"""Co-occurrence tables, pointwise mutual information, and correlations."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import dmeter
from dmeter.association import (
    CONTEXT_MODES,
    _average_ranks,
    build_cooccurrence,
    check_context_options,
    check_top_npmi_options,
    npmi,
    pearson,
    pmi,
    spearman,
    top_npmi,
)
from dmeter.corpus import Corpus, Record
from dmeter.errors import UndefinedValueError


def corpus_of(texts):
    return Corpus([Record(id=str(i), text=t) for i, t in enumerate(texts)])


def recount_binary(contexts):
    """Set-based recount oracle for binary per-context co-occurrence."""
    term_counts = Counter()
    pair_counts = Counter()
    for ctx in contexts:
        present = sorted(set(ctx))
        term_counts.update(present)
        for i, x in enumerate(present):
            for y in present[i + 1 :]:
                pair_counts[(x, y)] += 1
    return dict(term_counts), dict(pair_counts)


def manual_average_ranks(vals):
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


class TestBuildCooccurrence:
    def test_document_mode_small_example(self):
        t = build_cooccurrence(corpus_of(["a b", "a c", "a b c"]))
        assert t.n_contexts == 3
        assert t.term_count("a") == 3
        assert t.term_count("b") == 2
        assert t.pair_count("a", "b") == 2
        assert t.pair_count("b", "a") == 2
        assert t.pair_count("b", "c") == 1
        assert t.pair_count("a", "zzz") == 0

    def test_binary_counting_ignores_repeats_within_context(self):
        t = build_cooccurrence(corpus_of(["a a a b"]))
        assert t.term_count("a") == 1
        assert t.pair_count("a", "b") == 1

    def test_self_pairs_never_tracked(self):
        t = build_cooccurrence(corpus_of(["a a b"]))
        assert ("a", "a") not in t.pair_counts
        with pytest.raises(ValueError, match="self-pairs"):
            t.pair_count("a", "a")

    def test_window_mode(self):
        t = build_cooccurrence(corpus_of(["a b c d"]), context_mode="window", window_size=2)
        assert t.n_contexts == 3
        assert t.pair_count("a", "b") == 1
        assert t.pair_count("b", "c") == 1
        assert t.pair_count("a", "c") == 0

    def test_short_record_forms_one_window(self):
        t = build_cooccurrence(corpus_of(["a b"]), context_mode="window", window_size=10)
        assert t.n_contexts == 1
        assert t.pair_count("a", "b") == 1

    @pytest.mark.parametrize("targets", [None, ["b"]])
    def test_window_past_any_c_integer_is_one_context_per_nonempty_record(self, targets):
        c = corpus_of(["a b c", "", "b c d e", "a"])
        t = build_cooccurrence(c, targets, context_mode="window", window_size=10**30)
        doc = build_cooccurrence(c, targets)
        assert t.n_contexts == 3  # the empty record holds no window
        assert t.window_size == 10**30
        assert t.pair_counts == doc.pair_counts
        assert t.term_counts == doc.term_counts

    @pytest.mark.parametrize("size", [-3, 0, 2])
    def test_window_size_in_document_mode_rejected(self, size):
        with pytest.raises(ValueError, match=f"window_size is for window mode only, got {size}"):
            build_cooccurrence(corpus_of(["a b"]), context_mode="document", window_size=size)

    def test_window_mode_requires_size(self):
        c = corpus_of(["a b"])
        with pytest.raises(ValueError, match="window_size"):
            build_cooccurrence(c, context_mode="window")
        with pytest.raises(ValueError, match="window_size"):
            build_cooccurrence(c, context_mode="window", window_size=0)

    def test_unknown_mode_and_empty_inputs(self):
        with pytest.raises(ValueError, match="unknown context mode"):
            build_cooccurrence(corpus_of(["a"]), context_mode="sentence")
        with pytest.raises(ValueError, match="empty"):
            build_cooccurrence(corpus_of([]))
        with pytest.raises(ValueError, match="target set is empty"):
            build_cooccurrence(corpus_of(["a"]), targets=[])

    def test_targets_restrict_pairs(self):
        t = build_cooccurrence(corpus_of(["a b c", "b c"]), targets=["a"])
        assert t.pair_count("a", "b") == 1
        assert t.pair_count("a", "c") == 1
        assert ("b", "c") not in t.pair_counts

    def test_co_terms_sorted(self):
        t = build_cooccurrence(corpus_of(["q z a m"]))
        assert t.co_terms("q") == ["a", "m", "z"]
        assert t.co_terms("nope") == []

    def test_matches_recount_oracle_document_mode(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(15)]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 12)))) for _ in range(60)]
        c = corpus_of(texts)
        t = build_cooccurrence(c)
        term_oracle, pair_oracle = recount_binary(c.iter_record_tokens())
        assert t.term_counts == term_oracle
        assert t.pair_counts == pair_oracle

    def test_matches_recount_oracle_window_mode(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(8)]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 20)))) for _ in range(30)]
        c = corpus_of(texts)
        w = 4
        t = build_cooccurrence(c, context_mode="window", window_size=w)
        windows = []
        for toks in c.iter_record_tokens():
            if len(toks) <= w:
                windows.append(toks)
            else:
                windows.extend(toks[i : i + w] for i in range(len(toks) - w + 1))
        term_oracle, pair_oracle = recount_binary(windows)
        assert t.n_contexts == len(windows)
        assert t.term_counts == term_oracle
        assert t.pair_counts == pair_oracle


class TestPmiNpmi:
    def test_independence_is_zero(self):
        # p(x)=p(y)=1/2, p(x,y)=1/4
        t = build_cooccurrence(corpus_of(["x y", "x", "y", "q"]))
        assert pmi(t, "x", "y") == pytest.approx(0.0, abs=1e-12)
        assert npmi(t, "x", "y") == pytest.approx(0.0, abs=1e-12)

    def test_perfect_cooccurrence_is_one(self):
        # x and y appear in exactly the same half of the contexts
        t = build_cooccurrence(corpus_of(["x y", "x y", "q", "r"]))
        assert npmi(t, "x", "y") == pytest.approx(1.0, abs=1e-12)

    def test_joint_probability_one_defined_by_continuity(self):
        t = build_cooccurrence(corpus_of(["x y", "x y"]))
        assert npmi(t, "x", "y") == 1.0

    def test_never_cooccurring_pair(self):
        t = build_cooccurrence(corpus_of(["x", "y"]))
        assert pmi(t, "x", "y") == -math.inf
        assert npmi(t, "x", "y") == -1.0

    def test_smoothing_makes_zero_pairs_finite(self):
        t = build_cooccurrence(corpus_of(["x", "y"]))
        assert math.isfinite(pmi(t, "x", "y", smoothing=0.5))
        assert npmi(t, "x", "y", smoothing=0.5) > -1.0

    def test_pmi_sign_tracks_association_direction(self):
        attract = build_cooccurrence(corpus_of(["x y", "x y", "x y", "q"]))
        assert pmi(attract, "x", "y") > 0
        repel = build_cooccurrence(corpus_of(["x", "y", "x", "y", "x y"]))
        assert pmi(repel, "x", "y") < 0

    def test_argument_validation(self):
        t = build_cooccurrence(corpus_of(["x y"]))
        with pytest.raises(ValueError, match="smoothing"):
            pmi(t, "x", "y", smoothing=-0.1)
        with pytest.raises(ValueError, match="absent"):
            pmi(t, "x", "zzz")
        with pytest.raises(ValueError, match="itself"):
            npmi(t, "x", "x")

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    @pytest.mark.parametrize("measure", [pmi, npmi, lambda t, x, y, smoothing: top_npmi(
        t, x, smoothing=smoothing)], ids=["pmi", "npmi", "top_npmi"])
    def test_non_finite_smoothing_rejected(self, measure, smoothing):
        t = build_cooccurrence(corpus_of(["x y", "x z"]))
        with pytest.raises(ValueError, match="smoothing must be a finite number >= 0"):
            measure(t, "x", "y", smoothing=smoothing)

    @pytest.mark.parametrize("smoothing", [True, False])
    def test_bool_smoothing_rejected(self, smoothing):
        t = build_cooccurrence(corpus_of(["x y", "x z"]))
        message = f"smoothing must be a finite number >= 0, got {smoothing}"
        for measure in (pmi, npmi, lambda t, x, y, smoothing: top_npmi(t, x, smoothing=smoothing)):
            with pytest.raises(ValueError, match=message):
                measure(t, "x", "y", smoothing=smoothing)
        assert [row[0] for row in top_npmi(t, "x", smoothing=float(smoothing))] == ["y", "z"]

    def test_smoothed_terms_may_be_absent(self):
        t = build_cooccurrence(corpus_of(["x y"]))
        v = npmi(t, "x", "zzz", smoothing=1.0)
        assert math.isfinite(v)
        assert -1.0 <= v <= 1.0

    def test_npmi_bounds_on_random_tables(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(20):
            texts = [
                " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))
                for _ in range(int(rng.integers(2, 25)))
            ]
            t = build_cooccurrence(corpus_of(texts))
            terms = sorted(t.term_counts)
            for i, x in enumerate(terms):
                for y in terms[i + 1 :]:
                    v = npmi(t, x, y, smoothing=0.5)
                    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_symmetry(self):
        t = build_cooccurrence(corpus_of(["x y z", "x z", "y"]))
        assert pmi(t, "x", "y", 0.5) == pmi(t, "y", "x", 0.5)
        assert npmi(t, "x", "y", 0.5) == npmi(t, "y", "x", 0.5)


class TestTopNpmi:
    def test_ranks_by_score_then_term(self):
        # b always with x (2/2 contexts containing x), c once, d never
        t = build_cooccurrence(corpus_of(["x b", "x b c", "d"]))
        rows = top_npmi(t, "x", k=5)
        assert [r[0] for r in rows] == ["b", "c"]
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0][2] == 2

    def test_ties_break_alphabetically(self):
        t = build_cooccurrence(corpus_of(["x m z", "x m z"]))
        rows = top_npmi(t, "x", k=5)
        assert [r[0] for r in rows] == ["m", "z"]

    def test_k_truncates(self):
        t = build_cooccurrence(corpus_of(["x a b c d e"]))
        assert len(top_npmi(t, "x", k=3)) == 3

    def test_absent_target_gives_empty_list(self):
        t = build_cooccurrence(corpus_of(["a b"]))
        assert top_npmi(t, "zzz") == []

    def test_isolated_target_gives_empty_list(self):
        t = build_cooccurrence(corpus_of(["a", "b c"]))
        assert top_npmi(t, "a") == []

    @pytest.mark.parametrize("target", ["zzz", "a"], ids=["absent", "isolated"])
    def test_smoothing_checked_whether_or_not_the_target_has_co_terms(self, target):
        t = build_cooccurrence(corpus_of(["a", "b c"]))
        with pytest.raises(ValueError, match=r"smoothing must be a finite number >= 0, got -1"):
            top_npmi(t, target, smoothing=-1.0)

    def test_k_validation(self):
        t = build_cooccurrence(corpus_of(["a b"]))
        with pytest.raises(ValueError, match="k must be"):
            top_npmi(t, "a", k=0)


class TestCorrelations:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_matches_numpy(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            xs = rng.standard_normal(n)
            ys = rng.standard_normal(n) + 0.3 * xs
            assert pearson(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedValueError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_checks(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1], [2])

    def test_spearman_refuses_mismatched_lengths_and_one_pair(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="at least 2 pairs, got 1"):
            spearman([1], [2])

    def test_spearman_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(42)
        xs = rng.standard_normal(30)
        assert spearman(xs, np.exp(xs)) == pytest.approx(1.0, abs=1e-12)
        assert spearman(xs, -(xs**3)) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_equals_pearson_of_average_ranks(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            # integer draws force ties
            xs = list(rng.integers(0, 6, size=n).astype(float))
            ys = list(rng.integers(0, 6, size=n).astype(float))
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            want = pearson(manual_average_ranks(xs), manual_average_ranks(ys))
            assert spearman(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_spearman_matches_scipy(self):
        rng = np.random.default_rng(42)
        xs = list(rng.integers(0, 10, size=50).astype(float))
        ys = list(rng.integers(0, 10, size=50).astype(float))
        assert spearman(xs, ys) == pytest.approx(sps.spearmanr(xs, ys).statistic, abs=1e-12)

    @pytest.mark.parametrize("xs, ys, error, message", [
        ([1.0, math.nan, 3.0], [1, 2, 3], ValueError, "cosine similarity needs finite values"),
        ([2.0, 2.0, 2.0], [1, 2, 3], UndefinedValueError, "zero-variance"),
        ([1.0, 2.0], [3.0, 2.0, 1.0], ValueError, "length mismatch: 2 vs 3"),
    ], ids=["nan", "zero-variance", "length-mismatch"])
    def test_spearman_refuses_as_with_scipy_ranks(self, xs, ys, error, message):
        with pytest.raises(error, match=message):
            spearman(xs, ys)


_TIED_FLOATS = st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1.0, 1e308, math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(_TIED_FLOATS | st.floats(), min_size=1, max_size=40))
def test_average_ranks_match_scipy_rankdata(values):
    # Ties, signed zeros and infinities share average ranks; NaN anywhere
    # makes every rank NaN, as in rankdata's default.
    want = sps.rankdata(values, method="average")
    got = _average_ranks(values)
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def test_spearman_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
    code = ("import sys; from dmeter.association import spearman; "
            "print(spearman([1, 2, 2, 5], [3, 1, 4, 4]), 'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    value, loaded = out.stdout.split()
    assert float(value) == pytest.approx(0.5, abs=1e-12) and loaded == "False"


def parent_pearson(xs, ys) -> float:
    """pearson as it was before it became cosine_similarity of the centred
    samples, kept as an oracle for samples far from float's limits."""
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


def _pearson_outcome(fn, xs, ys):
    try:
        return fn(xs, ys)
    except UndefinedValueError as exc:
        return f"undefined: {exc}"


# Magnitudes from 1e-3 to 1e6, and 0: centred sums of squares stay far from
# float's limits, where the oracle overflows or underflows.
_in_range = (st.integers(-1000, 1000)
             | st.floats(-1e6, 1e6).filter(lambda x: x == 0 or abs(x) >= 1e-3))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_in_range, _in_range), min_size=2, max_size=40))
def test_pearson_matches_the_oracle_in_range(pairs):
    xs, ys = zip(*pairs)
    assert _pearson_outcome(pearson, xs, ys) == _pearson_outcome(parent_pearson, xs, ys)


class TestPearsonAtExtremeScales:
    def test_huge_samples_do_not_overflow_to_minus_one(self):
        xs = [1e200, -1e200, 0.0]
        assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_mean_is_not_minus_one(self):
        # The sum overflows to inf; the sample is rescaled by a power of two first.
        want = pearson([1.7, 1.7, 1.6], [1, 2, 3])
        assert want == pytest.approx(-math.sqrt(0.75), rel=1e-15)
        assert pearson([1.7e308, 1.7e308, 1.6e308], [1, 2, 3]) == pytest.approx(want, rel=1e-15)
        assert pearson([1, 2, 3], [1.7e308, 1.7e308, 1.6e308]) == pytest.approx(want, rel=1e-15)

    def test_overflowing_deviation_is_rescaled(self):
        # The mean is finite, but -1.7e308 lies more than the float range below it.
        want = pearson([-1.7, 1.7, 1.7], [1, 2, 3])
        assert pearson([-1.7e308, 1.7e308, 1.7e308], [1, 2, 3]) == pytest.approx(want, rel=1e-15)

    def test_non_finite_sample_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            pearson([math.inf, 1.0, 2.0], [1, 2, 3])

    def test_tiny_samples_are_not_zero_variance(self):
        # The squared deviations underflow to 0; the samples still vary.
        r = pearson([1e-170, -1e-170, 0.0], [-1e-170, 1e-170, 0.0])
        assert r == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                    min_size=2, max_size=30),
           st.integers(-900, 900))
    def test_power_of_two_scale_leaves_the_correlation(self, pairs, k):
        xs, ys = (np.array(col, dtype=np.float64) for col in zip(*pairs))
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        assert abs(pearson(np.ldexp(xs, k), ys) - pearson(xs, ys)) <= 4 * math.ulp(1.0)


# --- a window size and a k must be ints --------------------------------------------


@pytest.mark.parametrize("value", [True, False, 2.0, "2"])
def test_window_size_that_is_not_an_int_is_refused(value):
    for mode in CONTEXT_MODES:
        with pytest.raises(ValueError) as info:
            check_context_options(mode, value)
        assert str(info.value) == f"window_size must be an integer, got {value!r}"
    with pytest.raises(ValueError, match="window_size must be an integer"):
        build_cooccurrence(corpus_of(["a b c"]), context_mode="window", window_size=value)


@pytest.mark.parametrize("k", [True, False, 2.0, "2", None])
def test_top_npmi_k_that_is_not_an_int_is_refused(k):
    with pytest.raises(ValueError) as info:
        check_top_npmi_options(k, 0.0)
    assert str(info.value) == f"k must be an integer, got {k!r}"
    with pytest.raises(ValueError, match="k must be an integer"):
        top_npmi(build_cooccurrence(corpus_of(["x b", "x c"])), "x", k=k)
