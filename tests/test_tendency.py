"""Summary statistics, burstiness, Zipf fitting, and LM perplexity."""

import io
import math
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.optimize import brentq as scipy_brentq

from dmeter.corpus import Corpus, FrequencyTable, Record, TokenizerConfig
from dmeter.errors import UndefinedValueError
from dmeter import tendency
from dmeter.tendency import (
    BOS,
    OOV,
    burstiness,
    perplexity,
    perplexity_from_logprobs,
    summarize,
    timestamp_gaps,
    token_recurrence_gaps,
    train_lm,
    zipf_fit,
)


def corpus_of(texts, timestamps=None, **kwargs):
    ts = timestamps or [None] * len(texts)
    return Corpus(
        [Record(id=str(i), text=t, timestamp=s) for i, (t, s) in enumerate(zip(texts, ts))],
        **kwargs,
    )


def zipf_pmf(alpha, n_ranks):
    w = np.arange(1, n_ranks + 1, dtype=np.float64) ** (-alpha)
    return w / w.sum()


class TestSummarize:
    def test_small_sample(self):
        s = summarize([1, 2, 3, 4])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.min == 1.0 and s.max == 4.0
        assert s.variance == pytest.approx(5 / 3)
        assert s.std == pytest.approx(math.sqrt(5 / 3))

    def test_odd_count_median(self):
        assert summarize([5, 1, 3]).median == 3.0

    def test_all_tied_modes_sorted(self):
        assert summarize([3, 1, 2]).modes == (1.0, 2.0, 3.0)
        assert summarize([1, 2, 2, 3, 9]).modes == (2.0,)

    def test_small_counts_leave_fields_undefined(self):
        one = summarize([7.0])
        assert one.variance is None and one.std is None
        assert one.skewness is None and one.excess_kurtosis is None
        two = summarize([1.0, 2.0])
        assert two.variance is not None and two.skewness is None
        three = summarize([1.0, 2.0, 4.0])
        assert three.skewness is not None and three.excess_kurtosis is None

    def test_zero_variance_sample(self):
        s = summarize([2.0, 2.0, 2.0, 2.0])
        assert s.variance == 0.0
        assert s.skewness is None and s.excess_kurtosis is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_matches_reference_implementations(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            vals = rng.standard_normal(n) * rng.uniform(0.5, 5) + rng.uniform(-3, 3)
            vals = list(vals)
            s = summarize(vals)
            assert s.mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
            assert s.median == pytest.approx(statistics.median(vals), rel=1e-12)
            assert s.variance == pytest.approx(statistics.variance(vals), rel=1e-9)
            assert s.skewness == pytest.approx(sps.skew(vals, bias=False), rel=1e-9)
            assert s.excess_kurtosis == pytest.approx(
                sps.kurtosis(vals, fisher=True, bias=False), rel=1e-9
            )

    def test_symmetric_sample_has_zero_skew(self):
        assert summarize([-2, -1, 0, 1, 2]).skewness == pytest.approx(0.0, abs=1e-12)


class TestBurstiness:
    def test_periodic_is_exactly_minus_one(self):
        assert burstiness([5.0, 5.0, 5.0, 5.0]) == -1.0
        assert burstiness([0.25] * 17) == -1.0

    def test_exponential_gaps_near_zero(self):
        rng = np.random.default_rng(42)
        b = burstiness(rng.exponential(2.0, size=100_000))
        assert abs(b) < 0.02

    def test_heavy_tail_is_positive(self):
        gaps = [0.0] * 99 + [100.0]
        assert burstiness(gaps) > 0.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        gaps = rng.exponential(1.0, size=500)
        base = burstiness(gaps)
        for c in (0.1, 10.0):
            assert burstiness(c * gaps) == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            gaps = rng.uniform(0, 10, size=int(rng.integers(2, 50)))
            assert -1.0 <= burstiness(gaps) < 1.0

    def test_too_few_gaps(self):
        with pytest.raises(ValueError, match="at least 2"):
            burstiness([1.0])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            burstiness([1.0, -0.5])

    def test_all_zero_gaps_undefined(self):
        with pytest.raises(UndefinedValueError):
            burstiness([0.0, 0.0, 0.0])

    def test_subnormal_gaps(self):
        # The squared deviations underflow at this scale; B is that of any in-range scale.
        gaps = [1e-320, 2e-320, 4e-320]
        assert burstiness(gaps) == -0.30333704529042343
        assert burstiness(np.ldexp(gaps, 1000)) == -0.30333704529042343
        assert burstiness([5e-324, 0.0]) == 0.0

    def test_gaps_whose_sum_overflows(self):
        assert burstiness([1e308, 1.7e308, 0.0]) == pytest.approx(-0.12667946746170833,
                                                                   rel=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 2**20), min_size=2, max_size=30).filter(any),
           st.integers(-1074, 1002))
    def test_power_of_two_scale_keeps_bits(self, gaps, k):
        # Integer gaps below 2**21 scale exactly for every k in this range.
        assert burstiness(np.ldexp(gaps, k)) == burstiness(gaps)

    def test_timestamp_gaps_sorted_and_filtered(self):
        c = corpus_of(["x", "y", "z", "w"], timestamps=[10, 3, None, 7])
        assert timestamp_gaps(c) == [4.0, 3.0]

    def test_gap_past_the_float_range_is_named(self):
        c = corpus_of(["x", "y", "z"], timestamps=[0, 10**400, 5])
        with pytest.raises(ValueError, match=f"^the gap between timestamps 5 and {10**400} "
                                             "is past the float range$"):
            timestamp_gaps(c)

    def test_token_recurrence_gaps_cross_record_stream(self):
        c = corpus_of(["a b a", "a"])
        assert token_recurrence_gaps(c, "a") == [2.0, 1.0]
        assert token_recurrence_gaps(c, "b") == []
        assert token_recurrence_gaps(c, "zzz") == []


class TestZipfFit:
    def test_recovers_exponent_from_sampled_counts(self):
        rng = np.random.default_rng(42)
        for alpha in (0.9, 1.1):
            draws = rng.multinomial(200_000, zipf_pmf(alpha, 500))
            ft = FrequencyTable({f"r{i}": int(c) for i, c in enumerate(draws) if c})
            fit = zipf_fit(ft)
            assert abs(fit.alpha - alpha) < 0.05
            assert fit.ks_distance < 0.01
            assert fit.fit_method == "discrete-mle"
            assert "low-confidence" not in fit.flags

    def test_regression_method_on_exact_power_law(self):
        alpha = 1.2
        counts = {f"r{r}": round(1e7 * r**-alpha) for r in range(1, 201)}
        fit = zipf_fit(FrequencyTable(counts), fit_method="loglog-regression")
        assert fit.fit_method == "loglog-regression"
        assert abs(fit.alpha - alpha) < 0.01

    def test_ks_distance_matches_direct_recomputation(self):
        rng = np.random.default_rng(42)
        draws = rng.multinomial(50_000, zipf_pmf(1.05, 300))
        ft = FrequencyTable({f"r{i}": int(c) for i, c in enumerate(draws) if c})
        fit = zipf_fit(ft)
        counts = np.array(sorted(ft.entries.values(), reverse=True), dtype=float)
        obs = np.cumsum(counts) / counts.sum()
        w = np.arange(1, counts.size + 1) ** (-fit.alpha)
        fitted = np.cumsum(w) / w.sum()
        assert fit.ks_distance == pytest.approx(np.max(np.abs(obs - fitted)), abs=1e-12)

    def test_uniform_counts_clamp_to_floor(self):
        ft = FrequencyTable({f"r{i}": 10 for i in range(50)})
        fit = zipf_fit(ft)
        assert fit.alpha == pytest.approx(1e-6)
        assert "alpha-boundary" in fit.flags

    def test_extreme_concentration_clamps_to_ceiling(self):
        fit = zipf_fit(FrequencyTable({"a": 10**16, "b": 1}))
        assert fit.alpha == 50.0
        assert "alpha-boundary" in fit.flags

    def test_low_confidence_below_ten_ranks(self):
        ft = FrequencyTable({f"r{r}": 2 ** (8 - r) for r in range(5)})
        fit = zipf_fit(ft)
        assert fit.n_ranks == 5
        assert "low-confidence" in fit.flags

    def test_fewer_than_two_items_undefined(self):
        with pytest.raises(UndefinedValueError, match="fewer than 2"):
            zipf_fit(FrequencyTable({"a": 99}))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown fit method"):
            zipf_fit(FrequencyTable({"a": 2, "b": 1}), fit_method="hill")

    def test_deterministic(self):
        ft = FrequencyTable({"a": 70, "b": 30, "c": 15, "d": 8})
        a, b = zipf_fit(ft), zipf_fit(ft)
        assert a == b


# --- Brent's method against scipy.optimize.brentq ---------------------------------


def _fit_with_oracle(counts):
    """_mle_alpha(counts), asserting that each root _brentq finds is the float
    scipy.optimize.brentq finds for the same score and bracket."""
    roots, brentq = [], tendency._brentq

    def checked(f, a, b, **kw):
        root = brentq(f, a, b, **kw)
        assert root == scipy_brentq(f, a, b, **kw)
        roots.append(root)
        return root

    with mock.patch.object(tendency, "_brentq", checked):
        alpha, at_boundary = tendency._mle_alpha(np.asarray(counts, dtype=np.float64))
    assert roots == ([] if at_boundary else [alpha])


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 4.0), st.integers(2, 400), st.integers(10, 200_000), st.integers(0, 2**32 - 1))
def test_brentq_matches_scipy_on_zipf_multinomial_scores(alpha, n_ranks, n_draws, seed):
    draws = np.random.default_rng(seed).multinomial(n_draws, zipf_pmf(alpha, n_ranks))
    counts = np.sort(draws[draws > 0])[::-1]
    if counts.size >= 2:
        _fit_with_oracle(counts)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 10**9), min_size=2, max_size=300))
def test_brentq_matches_scipy_on_drawn_count_scores(counts):
    _fit_with_oracle(sorted(counts, reverse=True))


@settings(max_examples=300, deadline=None)
@given(st.floats(-5, 5), st.floats(0.05, 20), st.floats(0, 3), st.sampled_from([1.0, -1.0]),
       st.floats(1e-3, 50), st.floats(1e-3, 50), st.sampled_from([2e-12, 1e-6, 1e-3, 0.1, 1.0]))
# A short step accepted only because the bound is 3 * |sbis| - delta, not 3 * |sbis|.
@example(-2.294735250267812, 18.171342202717756, 0.4867823639201748, 1.0, 30.720931011557052,
         12.58629950411088, 1.0)
def test_brentq_matches_scipy_on_bracketed_functions(root, slope, cubic, sign, below, above, xtol):
    def f(x):
        return sign * (math.tanh(slope * (x - root)) + cubic * (x - root) ** 3)

    a, b = root - below, root + above
    if f(a) != 0 and f(b) != 0 and (f(a) < 0) != (f(b) < 0):
        assert tendency._brentq(f, a, b, xtol=xtol) == scipy_brentq(f, a, b, xtol=xtol)
        assert tendency._brentq(f, b, a, xtol=xtol) == scipy_brentq(f, b, a, xtol=xtol)


class TestBrentq:
    def test_endpoint_root_returned_as_is(self):
        assert tendency._brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert tendency._brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            tendency._brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="is NaN"):
            tendency._brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_no_convergence_raises_runtime_error(self):
        for brentq in (tendency._brentq, scipy_brentq):
            with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
                brentq(lambda x: x**3 - 2.0, 0.0, 10.0, maxiter=3)


class TestNgramLM:
    def test_unigram_mle_probabilities(self):
        lm = train_lm(corpus_of(["a a b"]), order=1, smoothing=0.0)
        assert lm.prob("a") == pytest.approx(2 / 3)
        assert lm.prob("b") == pytest.approx(1 / 3)
        assert lm.prob("zzz") == 0.0

    def test_smoothed_probabilities_sum_to_one(self):
        lm = train_lm(corpus_of(["a a b c"]), order=1, smoothing=0.7)
        total = math.fsum(lm.prob(t) for t in lm.vocab) + lm.prob(OOV)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bigram_conditionals_sum_to_one_per_context(self):
        lm = train_lm(corpus_of(["a b a", "b b"]), order=2, smoothing=0.5)
        for ctx in [BOS, "a", "b", OOV]:
            total = math.fsum(lm.prob(t, ctx) for t in lm.vocab) + lm.prob(OOV, ctx)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bigram_counts_start_at_record_boundary(self):
        lm = train_lm(corpus_of(["a b", "b a"]), order=2, smoothing=0.0)
        assert lm.bigram_counts == {(BOS, "a"): 1, ("a", "b"): 1, (BOS, "b"): 1, ("b", "a"): 1}

    def test_sentinels_never_collide_with_real_tokens(self):
        # Under the whitespace tokenizer "\x00" and "\x02" are ordinary tokens.
        c = corpus_of(["\x02 a \x00 \x00", "b"], tokenizer_config=TokenizerConfig(mode="whitespace"))
        unigram = train_lm(c, order=1, smoothing=1.0)
        assert unigram.prob("unseen") == pytest.approx(1.0 / (5 + 5))
        total = math.fsum(unigram.prob(t) for t in unigram.vocab) + unigram.prob(OOV)
        assert total == pytest.approx(1.0, abs=1e-12)
        bigram = train_lm(c, order=2, smoothing=0.0)
        assert bigram.context_counts[BOS] == 2
        assert bigram.context_counts["\x02"] == 1
        assert bigram.prob("a", "\x02") == 1.0

    def test_invalid_arguments(self):
        c = corpus_of(["a"])
        with pytest.raises(ValueError, match="order"):
            train_lm(c, order=3)
        with pytest.raises(ValueError, match="smoothing"):
            train_lm(c, smoothing=-1.0)
        with pytest.raises(ValueError, match="empty"):
            train_lm(corpus_of([]))

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be a finite number >= 0"):
            train_lm(corpus_of(["a b"]), smoothing=smoothing)


class TestPerplexity:
    def test_uniform_vocabulary_gives_vocab_size(self):
        for v in (2, 10, 100):
            text = " ".join(f"w{i}" for i in range(v))
            c = corpus_of([text, text, text])
            result = perplexity(train_lm(c, smoothing=0.0), c)
            assert result.perplexity == pytest.approx(float(v), abs=1e-9)

    def test_small_closed_form(self):
        c = corpus_of(["a a b"])
        result = perplexity(train_lm(c, smoothing=0.0), c)
        want = math.exp(-(2 * math.log(2 / 3) + math.log(1 / 3)) / 3)
        assert result.perplexity == pytest.approx(want, rel=1e-9)
        assert result.n_tokens == 3

    def test_unseen_token_with_zero_smoothing_is_flagged_infinite(self):
        lm = train_lm(corpus_of(["a b"]), smoothing=0.0)
        result = perplexity(lm, corpus_of(["a c"]))
        assert math.isinf(result.perplexity)
        assert "infinite" in result.flags
        assert math.isinf(result.per_record["0"][0])

    def test_smoothing_keeps_unseen_tokens_finite(self):
        lm = train_lm(corpus_of(["a b"]), smoothing=1.0)
        result = perplexity(lm, corpus_of(["a c"]))
        assert math.isfinite(result.perplexity)
        assert result.flags == ()

    def test_per_record_values_aggregate_to_global(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(12)]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 15)))) for _ in range(20)]
        c = corpus_of(texts)
        result = perplexity(train_lm(c, smoothing=0.5), c)
        weighted = math.fsum(n * math.log(p) for p, n in result.per_record.values())
        assert result.perplexity == pytest.approx(math.exp(weighted / result.n_tokens), rel=1e-9)
        assert result.n_tokens == sum(n for _, n in result.per_record.values())

    def test_bigram_model_wins_on_alternating_text(self):
        c = corpus_of(["a b " * 50])
        uni = perplexity(train_lm(c, order=1, smoothing=0.0), c)
        bi = perplexity(train_lm(c, order=2, smoothing=0.0), c)
        assert uni.perplexity == pytest.approx(2.0, abs=1e-9)
        assert bi.perplexity == pytest.approx(1.0, abs=1e-9)

    def test_training_corpus_scores_below_random_text(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(30)]
        skewed = [" ".join(rng.choice(vocab[:5], size=20)) for _ in range(30)]
        c = corpus_of(skewed)
        lm = train_lm(c, smoothing=1.0)
        self_ppl = perplexity(lm, c).perplexity
        other = corpus_of([" ".join(rng.choice(vocab, size=20)) for _ in range(30)])
        other_ppl = perplexity(lm, other).perplexity
        assert self_ppl < other_ppl

    def test_tokenizer_mismatch_rejected(self):
        c1 = corpus_of(["a b"])
        c2 = corpus_of(["a b"], tokenizer_config=TokenizerConfig(case_fold=False))
        with pytest.raises(ValueError, match="tokenizer mismatch"):
            perplexity(train_lm(c1), c2)

    def test_tokenless_corpus_undefined(self):
        lm = train_lm(corpus_of(["a"]))
        with pytest.raises(UndefinedValueError, match="no tokens"):
            perplexity(lm, corpus_of(["...", "!!"]))


class TestPerplexityFromLogprobs:
    def lines(self, rows):
        import json

        return io.StringIO("\n".join(json.dumps(r) for r in rows))

    def test_aggregates_external_scores(self):
        rows = [
            {"id": "0", "logprob": -6.0, "n_tokens": 3},
            {"id": "1", "logprob": -2.0, "n_tokens": 2},
        ]
        result = perplexity_from_logprobs(self.lines(rows))
        assert result.perplexity == pytest.approx(math.exp(8.0 / 5.0), rel=1e-12)
        assert result.n_tokens == 5
        assert result.provenance == "external-model"
        assert result.per_record["0"][0] == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_ids_checked_against_corpus(self):
        rows = [{"id": "99", "logprob": -1.0, "n_tokens": 1}]
        with pytest.raises(ValueError, match="unknown record id '99'"):
            perplexity_from_logprobs(self.lines(rows), corpus_of(["a"]))

    def test_malformed_lines_name_their_line_number(self):
        bad = io.StringIO('{"id": "0", "logprob": -1.0, "n_tokens": 1}\n{"id": "1"}')
        with pytest.raises(ValueError, match="line 2"):
            perplexity_from_logprobs(bad)

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="logprob must be <= 0"):
            perplexity_from_logprobs(self.lines([{"id": "0", "logprob": 0.5, "n_tokens": 1}]))

    def test_zero_token_line_rejected(self):
        with pytest.raises(ValueError, match="n_tokens must be >= 1"):
            perplexity_from_logprobs(self.lines([{"id": "0", "logprob": -1.0, "n_tokens": 0}]))

    def test_empty_file_undefined(self):
        with pytest.raises(UndefinedValueError):
            perplexity_from_logprobs(io.StringIO(""))

    def test_duplicate_id_names_its_line(self):
        rows = [
            {"id": "a", "logprob": -1.0, "n_tokens": 1},
            {"id": "b", "logprob": -1.0, "n_tokens": 1},
            {"id": "a", "logprob": -2.0, "n_tokens": 1},
        ]
        with pytest.raises(ValueError, match="line 3: duplicate record id 'a'"):
            perplexity_from_logprobs(self.lines(rows))

    def test_partial_corpus_coverage_flagged(self):
        corpus = corpus_of(["x y", "z", "w"])
        rows = [{"id": "0", "logprob": -2.0, "n_tokens": 2}]
        partial = perplexity_from_logprobs(self.lines(rows), corpus)
        assert partial.flags == ("partial-coverage",)
        assert partial.n_tokens == 2
        rows += [{"id": "1", "logprob": -1.0, "n_tokens": 1},
                 {"id": "2", "logprob": -1.0, "n_tokens": 1}]
        assert perplexity_from_logprobs(self.lines(rows), corpus).flags == ()
        assert perplexity_from_logprobs(self.lines(rows[:1])).flags == ()

    @pytest.mark.parametrize("field, raw, reason", [
        ("n_tokens", "true", "n_tokens must be a JSON integer, got True"),
        ("n_tokens", "2.7", "n_tokens must be a JSON integer, got 2.7"),
        ("n_tokens", '"2"', "n_tokens must be a JSON integer, got '2'"),
        ("n_tokens", "1e999", "n_tokens must be a JSON integer, got inf"),
        ("n_tokens", "9" * 400, "n_tokens and logprob must fit in a float"),
        ("logprob", "false", "logprob must be a JSON number, got False"),
        ("logprob", "NaN", "logprob must be <= 0, got nan"),
        ("logprob", '"-1"', "logprob must be a JSON number, got '-1'"),
        ("logprob", "1e999", "logprob must be <= 0, got inf"),
        ("logprob", "-" + "9" * 400, "n_tokens and logprob must fit in a float"),
    ], ids=["n_tokens-true", "n_tokens-2.7", "n_tokens-string", "n_tokens-1e999",
            "n_tokens-400-digits", "logprob-false", "logprob-NaN", "logprob-string",
            "logprob-1e999", "logprob-400-digits"])
    def test_field_types_checked_and_named(self, field, raw, reason):
        fields = {"logprob": "-1.0", "n_tokens": "1", field: raw}
        line = '{"id": "b", "logprob": %(logprob)s, "n_tokens": %(n_tokens)s}' % fields
        source = io.StringIO('{"id": "a", "logprob": -1.0, "n_tokens": 1}\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            perplexity_from_logprobs(source)
        assert str(info.value) == f"logprob file line 2: {reason}"

    def test_negative_infinite_logprob_is_an_infinite_result(self):
        result = perplexity_from_logprobs(io.StringIO(
            '{"id": "a", "logprob": -Infinity, "n_tokens": 2}\n'
            '{"id": "b", "logprob": -1, "n_tokens": 1}\n'))
        assert result.perplexity == math.inf
        assert result.flags == ("infinite",)
        assert result.per_record["b"] == (math.e, 1)

    @pytest.mark.parametrize("line, reason", [
        ("[" * 100_000 + "]" * 100_000, "invalid JSON: number or nesting too large"),
        ('{"id": "a", "logprob": ' + "1" * 5000 + "}", "invalid JSON: number or nesting too large"),
        ('{"id": "a",', "invalid JSON: Expecting property name enclosed in double quotes"),
    ], ids=["deep-nesting", "too-many-digits", "truncated"])
    def test_invalid_json_reasons_match_the_jsonl_reader(self, line, reason):
        source = io.StringIO('{"id": "a", "logprob": -1.0, "n_tokens": 1}\n\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            perplexity_from_logprobs(source)
        assert str(info.value) == f"logprob file line 3: {reason}"

    def test_id_with_a_raw_line_separator_is_one_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a\u2028b", "logprob": -2.0, "n_tokens": 2}\n', encoding="utf-8")
        assert list(perplexity_from_logprobs(path).per_record) == ["a\u2028b"]

    def test_line_not_utf8_named(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b'{"id": "a", "logprob": -1.0, "n_tokens": 1}\n'
                         b'{"id": "b\xff", "logprob": -1.0, "n_tokens": 1}\n')
        with pytest.raises(ValueError, match="^logprob file line 2: not valid UTF-8$"):
            perplexity_from_logprobs(path)


# --- bigram tables against the per-token loop they replaced ---------------------


def per_token_bigram_tables(corpus):
    """Walk every token with its predecessor (BOS at a record start): the loop
    train_lm ran before it took its bigrams from the corpus's cached table."""
    bigram, contexts = {}, {}
    for toks in corpus.iter_record_tokens():
        prev = BOS
        for tok in toks:
            bigram[(prev, tok)] = bigram.get((prev, tok), 0) + 1
            contexts[prev] = contexts.get(prev, 0) + 1
            prev = tok
    return bigram, contexts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "\x00", "\x01", "\x02", "<bos>"]),
                         max_size=6), max_size=6))
def test_bigram_tables_match_per_token_oracle(records):
    c = corpus_of([" ".join(toks) for toks in records] or [""],
                  tokenizer_config=TokenizerConfig(mode="whitespace", case_fold=False))
    lm = train_lm(c, order=2)
    bigram, contexts = per_token_bigram_tables(c)
    assert lm.bigram_counts == bigram
    assert lm.context_counts == contexts


# --- smoothing so large that alpha * (vocab + 1) overflows ----------------------


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("smoothing", [1e308, 5e307, 1.7976931348623157e308])
def test_huge_smoothing_gives_a_near_uniform_model(order, smoothing):
    from dmeter.tendency import _token_logprobs

    c = corpus_of(["the cat sat", "The dog"])
    bins = len(c.vocabulary) + 1  # 4 types plus the OOV bucket
    assert math.isinf(smoothing * bins)
    lm = train_lm(c, order=order, smoothing=smoothing)
    result = perplexity(lm, c)
    assert result.perplexity == pytest.approx(bins, rel=1e-12)
    assert result.flags == ()
    # The per-token route and NgramLM.prob agree, token by token.
    logprobs = _token_logprobs(lm, c).tolist()
    want = []
    for toks in c.iter_record_tokens():
        prev = BOS
        for tok in toks:
            want.append(math.log(lm.prob(tok, prev if order == 2 else None)))
            prev = tok
    assert logprobs == want
    assert lm.prob("unseen", "cat" if order == 2 else None) == pytest.approx(1 / bins, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_large_finite_smoothing_keeps_the_plain_formula(order):
    c = corpus_of(["the cat sat", "the dog"])
    bins = len(c.vocabulary) + 1
    for smoothing in (1e300, 3.5e307):
        lm = train_lm(c, order=order, smoothing=smoothing)
        context = "the" if order == 2 else None
        total = lm.context_counts["the"] if order == 2 else lm.total_tokens
        count = lm.bigram_counts[("the", "cat")] if order == 2 else lm.unigram_counts["cat"]
        assert lm.prob("cat", context) == (count + smoothing) / (total + smoothing * bins)


# --- NgramLM.prob against the scalar arithmetic it replaced ---------------------


def parent_prob(self, token, context=None):
    """NgramLM.prob as it was before it became the one-outcome case of the
    array smoothing rule, kept as an oracle."""
    alpha = self.smoothing
    bins = self.vocab_size + 1  # vocab plus the OOV bucket
    if token not in self.vocab:
        token = OOV
    if self.order == 1:
        count, total = self.unigram_counts.get(token, 0), self.total_tokens
    else:
        if context is None:
            raise ValueError("bigram model needs a context token")
        if context != BOS and context not in self.vocab:
            context = OOV
        count = self.bigram_counts.get((context, token), 0)
        total = self.context_counts.get(context, 0)
    if math.isinf(alpha * bins):  # divide through by alpha, as _token_logprobs does
        return (count / alpha + 1) / (total / alpha + bins)
    den = total + alpha * bins
    if den == 0.0:
        return 0.0
    return (count + alpha) / den


_FLOAT_MAX = 1.7976931348623157e308
_smoothings = (st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
                                1e308, _FLOAT_MAX])
               | st.floats(0.0, _FLOAT_MAX))


@settings(max_examples=500, deadline=None)
@given(order=st.sampled_from([1, 2]), smoothing=_smoothings, count=st.integers(0, 10**6),
       rest=st.integers(0, 10**7), vocab_size=st.integers(1, 10**6))
@example(order=1, smoothing=0.0, count=0, rest=0, vocab_size=1)  # 0 / 0 is probability 0
@example(order=2, smoothing=0.0, count=0, rest=0, vocab_size=3)
def test_prob_matches_the_scalar_smoothing_oracle(order, smoothing, count, rest, vocab_size):
    total = count + rest  # a model's count never exceeds its total
    lm = tendency.NgramLM(order=order, smoothing=smoothing, vocab=frozenset({"a", "b"}),
                          vocab_size=vocab_size, total_tokens=total,
                          unigram_counts={"a": count}, bigram_counts={("b", "a"): count},
                          context_counts={"b": total})
    for token, context in [("a", "b"), ("zzz", "b"), ("a", "unseen"), ("a", BOS)]:
        context = context if order == 2 else None
        assert lm.prob(token, context) == parent_prob(lm, token, context)


# --- NgramLM.prob and _token_logprobs against their own lookups -----------------


def parent_lookup_prob(self, token, context=None):
    """NgramLM.prob as it was before it became the one-outcome case of the
    per-outcome lookup, kept as an oracle."""
    if token not in self.vocab:
        token = OOV
    if self.order == 1:
        count, total = self.unigram_counts.get(token, 0), self.total_tokens
    else:
        if context is None:
            raise ValueError("bigram model needs a context token")
        if context != BOS and context not in self.vocab:
            context = OOV
        count = self.bigram_counts.get((context, token), 0)
        total = self.context_counts.get(context, 0)
    return float(tendency._smoothed(self, np.float64(count), np.float64(total)))


def parent_token_logprobs(lm, corpus):
    """_token_logprobs as it was before it shared the per-outcome lookup with
    NgramLM.prob and the BOS rule with train_lm, kept as an oracle."""
    vocab, ids = corpus.vocabulary, corpus.token_ids
    n_types = len(vocab)
    keys = (*vocab, OOV, BOS)
    known = np.fromiter((t in lm.vocab for t in vocab), dtype=bool, count=n_types)
    tokens = np.where(known, np.arange(n_types), n_types)[ids]
    if lm.order == 1:
        outcome = tokens
        outcome_keys = np.arange(n_types + 1)
        counts = [lm.unigram_counts.get(keys[k], 0) for k in outcome_keys.tolist()]
        totals = np.full(outcome_keys.size, float(lm.total_tokens))
    else:
        offsets = corpus.record_offsets
        contexts = np.empty_like(tokens)
        contexts[1:] = tokens[:-1]
        contexts[offsets[:-1][np.diff(offsets) > 0]] = n_types + 1  # BOS
        outcome_keys, outcome = np.unique(contexts * (n_types + 2) + tokens, return_inverse=True)
        ctx_keys, tok_keys = np.divmod(outcome_keys, n_types + 2)
        get = lm.bigram_counts.get
        counts = [get((keys[c], keys[t]), 0) for c, t in zip(ctx_keys.tolist(), tok_keys.tolist())]
        distinct_ctx, ctx_of = np.unique(ctx_keys, return_inverse=True)
        get = lm.context_counts.get
        totals = np.array([get(keys[c], 0) for c in distinct_ctx.tolist()], dtype=np.float64)
        totals = totals[ctx_of]
    probs = tendency._smoothed(lm, np.array(counts, dtype=np.float64), totals)
    distinct, which = np.unique(probs, return_inverse=True)
    logs = np.array([-math.inf if p <= 0.0 else math.log(p) for p in distinct.tolist()])
    return logs[which][outcome]


_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "<bos>", "<oov>"]), max_size=6)


@settings(max_examples=300, deadline=None)
@given(train=st.lists(_WORDS, min_size=1, max_size=6), scored=st.lists(_WORDS, max_size=6),
       order=st.sampled_from([1, 2]), smoothing=_smoothings)
@example(train=[["a", "b"]], scored=[["c", "a"], [], ["b"]], order=2, smoothing=0.0)
@example(train=[[]], scored=[["a"]], order=1, smoothing=0.0)
def test_lookups_match_their_parent_oracles(train, scored, order, smoothing):
    config = TokenizerConfig(mode="whitespace", case_fold=False)
    lm = train_lm(corpus_of([" ".join(t) for t in train], tokenizer_config=config),
                  order, smoothing)
    for words in (train, scored):  # a model scores its own corpus, or one it never saw
        c = corpus_of([" ".join(t) for t in words] or [""], tokenizer_config=config)
        assert tendency._token_logprobs(lm, c).tolist() == parent_token_logprobs(lm, c).tolist()
    outcomes = [*"abcdz", "<bos>", BOS, OOV]
    for token in outcomes:
        for context in ([None] if order == 1 else outcomes):
            assert lm.prob(token, context) == parent_lookup_prob(lm, token, context)
