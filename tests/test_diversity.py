"""Diversity indices: Gini, Shannon, Vendi, distinct-n, dispersion, subsets."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.corpus import Corpus, FrequencyTable, Record
from dmeter.diversity import (
    SimilarityKernel,
    SubsetDiversityReport,
    embedding_dispersion,
    gini_diversity,
    kernel_from_embeddings,
    ngram_diversity,
    shannon_entropy,
    subset_diversity,
    vendi_score,
)
from dmeter.errors import KernelInvalidError, UndefinedValueError
from dmeter.vectors import EmbeddingMatrix


def exp_eigenvalue_entropy(matrix):
    """Independent recomputation of the spectral effective-count definition."""
    lam = np.linalg.eigvalsh(np.asarray(matrix, dtype=np.float64))
    lam = lam / matrix.shape[0]
    ent = -math.fsum(v * math.log(v) for v in lam if v > 1e-10)
    return math.exp(ent)


def corpus_of(texts, **kwargs):
    return Corpus([Record(id=str(i), text=t) for i, t in enumerate(texts)], **kwargs)


class TestGiniAndShannon:
    def test_pure_table(self):
        ft = FrequencyTable({"a": 9})
        assert gini_diversity(ft) == 0.0
        assert shannon_entropy(ft) == 0.0

    def test_uniform_closed_forms(self):
        for k in range(1, 11):
            ft = FrequencyTable({f"t{i}": 3 for i in range(k)})
            assert gini_diversity(ft) == pytest.approx(1 - 1 / k, abs=1e-12)
            assert shannon_entropy(ft) == pytest.approx(math.log(k), abs=1e-12)

    def test_two_class_example(self):
        ft = FrequencyTable({"a": 3, "b": 1})
        assert gini_diversity(ft) == pytest.approx(1 - (0.75**2 + 0.25**2), abs=1e-12)
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert shannon_entropy(ft) == pytest.approx(expected, abs=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gini_diversity(FrequencyTable({}))
        with pytest.raises(ValueError, match="empty"):
            shannon_entropy(FrequencyTable({}))

    def test_bounds_on_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            ft = FrequencyTable({i: int(c) for i, c in enumerate(rng.integers(1, 100, size=k))})
            g = gini_diversity(ft)
            h = shannon_entropy(ft)
            assert 0.0 <= g <= 1 - 1 / k + 1e-12
            assert -1e-12 <= h <= math.log(k) + 1e-12

    def test_entropy_uniform_is_maximal(self):
        rng = np.random.default_rng(7)
        k = 12
        uniform = shannon_entropy(FrequencyTable({i: 5 for i in range(k)}))
        for _ in range(50):
            ft = FrequencyTable({i: int(c) for i, c in enumerate(rng.integers(1, 50, size=k))})
            assert shannon_entropy(ft) <= uniform + 1e-12


class TestSimilarityKernel:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SimilarityKernel(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="asymmetry"):
            SimilarityKernel(m)

    def test_rejects_bad_diagonal(self):
        m = np.eye(3)
        m[1, 1] = 0.9
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityKernel(m)

    def test_rejects_out_of_range_entries(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            SimilarityKernel(m)

    def test_tiny_asymmetry_is_symmetrized(self):
        m = np.eye(2)
        m[0, 1] = 0.5 + 1e-12
        m[1, 0] = 0.5 - 1e-12
        k = SimilarityKernel(m)
        assert k.matrix[0, 1] == k.matrix[1, 0]

    def test_kernel_from_embeddings(self):
        emb = EmbeddingMatrix(["a", "b"], [[1.0, 0.0], [10.0, 0.0]])
        k = kernel_from_embeddings(emb)
        np.testing.assert_allclose(k.matrix, np.ones((2, 2)))

    def test_kernel_from_embeddings_zero_row(self):
        emb = EmbeddingMatrix(["a", "z"], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(UndefinedValueError, match="z"):
            kernel_from_embeddings(emb)


class TestVendiScore:
    def test_all_identical_items(self):
        for n in (2, 4, 8, 16):
            assert vendi_score(np.ones((n, n))) == pytest.approx(1.0, abs=1e-9)

    def test_all_orthogonal_items(self):
        for n in (2, 4, 8, 16):
            assert vendi_score(np.eye(n)) == pytest.approx(float(n), abs=1e-9)

    def test_two_groups_of_identical_items(self):
        # k copies each of n mutually orthogonal vectors: effective count n
        for n, k in [(2, 3), (4, 2), (5, 5)]:
            base = np.eye(n)
            rows = np.repeat(base, k, axis=0)
            kernel = rows @ rows.T
            assert vendi_score(kernel) == pytest.approx(float(n), abs=1e-9)

    def test_matches_eigenvalue_entropy_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, d = int(rng.integers(2, 30)), int(rng.integers(2, 10))
            vecs = rng.standard_normal((n, d))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            kernel = np.clip(vecs @ vecs.T, -1.0, 1.0)
            np.fill_diagonal(kernel, 1.0)
            got = vendi_score(kernel)
            assert got == pytest.approx(exp_eigenvalue_entropy(kernel), rel=1e-9)
            assert 1.0 - 1e-9 <= got <= n + 1e-9

    def test_negative_spectrum_is_an_error(self):
        # valid-looking entries, but indefinite as a matrix
        m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(m)[0] < -1e-8 * 3
        with pytest.raises(KernelInvalidError, match="positive semidefinite"):
            vendi_score(m)

    def test_single_item(self):
        assert vendi_score(np.ones((1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_wrapped_kernel(self):
        k = SimilarityKernel(np.eye(3))
        assert vendi_score(k) == pytest.approx(3.0, abs=1e-9)


@st.composite
def embeddings_with_structure(draw):
    """n in [1, 40] rows of dimension d in [1, 12]: small-integer combinations
    of a few basis rows (rank deficient), drawn with repeats from a pool
    (duplicate rows), sometimes with one row zeroed."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rank, pool_size = draw(st.integers(1, d)), draw(st.integers(1, n))
    small = st.integers(-3, 3)
    basis = draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=rank, max_size=rank))
    weights = draw(st.lists(st.lists(small, min_size=rank, max_size=rank),
                            min_size=pool_size, max_size=pool_size))
    pool = np.array(weights, dtype=np.float64) @ np.array(basis, dtype=np.float64)
    matrix = pool[draw(st.lists(st.integers(0, pool_size - 1), min_size=n, max_size=n))]
    zero_row = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        matrix[zero_row] = 0.0
    return EmbeddingMatrix([f"r{i}" for i in range(n)], matrix)


class TestVendiScoreOverEmbeddings:
    """The Gram route over unit rows against the n x n cosine kernel it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(emb=embeddings_with_structure())
    def test_matches_cosine_kernel_route(self, emb):
        if np.any(np.linalg.norm(emb.matrix, axis=1) == 0.0):
            with pytest.raises(UndefinedValueError) as via_kernel:
                vendi_score(kernel_from_embeddings(emb))
            with pytest.raises(UndefinedValueError) as via_gram:
                vendi_score(emb)
            assert str(via_gram.value) == str(via_kernel.value)
            return
        got = vendi_score(emb)
        assert got == pytest.approx(vendi_score(kernel_from_embeddings(emb)), rel=1e-9)
        assert 1.0 - 1e-9 <= got <= emb.n + 1e-9

    def test_empty_matrix_is_an_argument_error_on_both_routes(self):
        emb = EmbeddingMatrix([], np.empty((0, 3)))
        with pytest.raises(ValueError, match="at least 1x1"):
            vendi_score(kernel_from_embeddings(emb))
        with pytest.raises(ValueError, match="at least 1x1"):
            vendi_score(emb)

    def test_memory_stays_linear_in_n(self):
        # An n x n float64 kernel at n=20,000 would need 3.2 GB.
        rng = np.random.default_rng(5)
        emb = EmbeddingMatrix([f"r{i}" for i in range(20_000)], rng.standard_normal((20_000, 8)))
        tracemalloc.start()
        try:
            got = vendi_score(emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 1.0 <= got <= 8.0 + 1e-9


class TestNgramDiversity:
    def test_all_distinct_unigrams(self):
        c = corpus_of(["a b c d"])
        assert ngram_diversity(c, 1) == 1.0

    def test_repeated_unigrams(self):
        c = corpus_of(["a a a b"])
        assert ngram_diversity(c, 1) == pytest.approx(0.5)

    def test_bigram_example(self):
        # bigrams: (a,b) x2, (b,a) x1 -> 2 distinct / 3 total
        c = corpus_of(["a b a b"])
        assert ngram_diversity(c, 2) == pytest.approx(2 / 3)

    def test_vocabulary_denominator(self):
        c = corpus_of(["a b a b"])
        # 2 distinct bigrams over 2 vocabulary types
        assert ngram_diversity(c, 2, denominator="vocabulary") == pytest.approx(1.0)

    def test_records_too_short(self):
        c = corpus_of(["a", "b"])
        with pytest.raises(UndefinedValueError, match="no 2-grams"):
            ngram_diversity(c, 2)

    def test_unknown_denominator(self):
        with pytest.raises(ValueError, match="unknown denominator"):
            ngram_diversity(corpus_of(["a b"]), 1, denominator="records")

    def test_ratio_in_unit_interval(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(20)]
        texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(40)]
        c = corpus_of(texts)
        for n in (1, 2, 3):
            assert 0.0 < ngram_diversity(c, n) <= 1.0


class TestEmbeddingDispersion:
    def test_identical_rows_have_zero_dispersion(self):
        emb = EmbeddingMatrix(["a", "b", "c"], np.tile([1.0, 2.0], (3, 1)))
        assert embedding_dispersion(emb) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_pair(self):
        emb = EmbeddingMatrix(["a", "b"], [[-1.0, 0.0], [1.0, 0.0]])
        assert embedding_dispersion(emb) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_mean_distance(self):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((60, 5))
        emb = EmbeddingMatrix([f"p{i}" for i in range(60)], matrix)
        centroid = matrix.mean(axis=0)
        want = np.mean([np.linalg.norm(row - centroid) for row in matrix])
        assert embedding_dispersion(emb) == pytest.approx(want, rel=1e-12)

    def test_translation_invariant_and_scale_linear(self):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((25, 4))
        emb = EmbeddingMatrix([f"p{i}" for i in range(25)], matrix)
        shifted = EmbeddingMatrix([f"p{i}" for i in range(25)], matrix + 9.0)
        scaled = EmbeddingMatrix([f"p{i}" for i in range(25)], matrix * 3.0)
        base = embedding_dispersion(emb)
        assert embedding_dispersion(shifted) == pytest.approx(base, rel=1e-9)
        assert embedding_dispersion(scaled) == pytest.approx(3.0 * base, rel=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            embedding_dispersion(EmbeddingMatrix(["a"], [[1.0, 2.0]]))

    def test_rows_past_1e154_from_the_centroid_stay_finite(self):
        emb = EmbeddingMatrix(["a", "b", "c"], [[1e200, 0.0], [0.0, 1e200], [1.0, 2.0]])
        centroid = emb.matrix.mean(axis=0)
        want = np.mean([math.hypot(*(row - centroid)) for row in emb.matrix])
        assert embedding_dispersion(emb) == pytest.approx(want, rel=1e-15)

    @staticmethod
    def rows(*values):
        return EmbeddingMatrix([f"p{i}" for i in range(len(values))], [[v] for v in values])

    def test_equal_rows_whose_centroid_sum_overflows_have_zero_dispersion(self):
        assert embedding_dispersion(self.rows(1.7e308, 1.7e308)) == 0.0

    def test_rows_whose_centroid_sum_overflows_stay_finite(self):
        xs = [Fraction(1.7e308), Fraction(1.7e308), Fraction(1.6e308)]
        centroid = sum(xs) / 3
        want = float(sum(abs(x - centroid) for x in xs) / 3)  # about 4.44e306
        assert embedding_dispersion(self.rows(1.7e308, 1.7e308, 1.6e308)) == pytest.approx(
            want, rel=1e-14)

    def test_norms_whose_sum_overflows_keep_their_mean(self):
        assert embedding_dispersion(self.rows(1.7e308, -1.7e308)) == 1.7e308

    def test_a_distance_past_the_float_range_is_infinite(self):
        emb = EmbeddingMatrix(["a", "b"], [[1.7e308] * 4, [-1.7e308] * 4])  # 3.4e308 each
        assert embedding_dispersion(emb) == math.inf


class TestSubsetDiversity:
    def records(self):
        return [
            Record(id="1", text="x", attributes={"lang": "en"}),
            Record(id="2", text="x", attributes={"lang": "en"}),
            Record(id="3", text="x", attributes={"lang": "de"}),
            Record(id="4", text="x", attributes=None),
        ]

    def test_proportions_and_counts(self):
        rep = subset_diversity(self.records(), "lang")
        assert rep.proportions == {"de": pytest.approx(1 / 3), "en": pytest.approx(2 / 3)}
        assert rep.n_labeled == 3
        assert rep.n_unlabeled == 1

    def test_entropy_matches_proportions(self):
        rep = subset_diversity(self.records(), "lang")
        want = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        assert rep.entropy == pytest.approx(want, abs=1e-12)

    def test_unlabeled_records_never_imputed(self):
        rep = subset_diversity(self.records(), "lang")
        assert math.fsum(rep.proportions.values()) == pytest.approx(1.0, abs=1e-12)
        assert "" not in rep.proportions and None not in rep.proportions

    def test_absent_attribute_is_an_error(self):
        with pytest.raises(ValueError, match="absent"):
            subset_diversity(self.records(), "topic")

    def test_single_label(self):
        recs = [Record(id="1", text="x", attributes={"k": "v"})]
        rep = subset_diversity(recs, "k")
        assert rep.proportions == {"v": 1.0}
        assert rep.entropy == 0.0


def parent_subset_diversity(records, attribute: str) -> SubsetDiversityReport:
    """subset_diversity as it was before it took shannon_entropy of a
    FrequencyTable, kept as an oracle."""
    labeled: dict[str, int] = {}
    n_labeled = 0
    n_unlabeled = 0
    for record in records:
        attrs = record.attributes or {}
        if attribute in attrs:
            labeled[attrs[attribute]] = labeled.get(attrs[attribute], 0) + 1
            n_labeled += 1
        else:
            n_unlabeled += 1
    if n_labeled == 0:
        raise ValueError(f"attribute {attribute!r} is absent from all records")
    proportions = {label: count / n_labeled for label, count in sorted(labeled.items())}
    entropy = -math.fsum(p * math.log(p) for p in proportions.values() if p > 0)
    return SubsetDiversityReport(
        attribute=attribute,
        proportions=proportions,
        entropy=entropy,
        n_labeled=n_labeled,
        n_unlabeled=n_unlabeled,
    )


_labels = st.sampled_from(["en", "de", "fr", "日本", "", "e\u0301"])
_attributes = st.none() | st.dictionaries(st.sampled_from(["lang", "src"]), _labels, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(_attributes, max_size=40))
def test_subset_diversity_matches_the_counting_loop(attributes):
    records = [Record(id=str(i), text="x", attributes=a) for i, a in enumerate(attributes)]
    for attribute in ("lang", "src"):
        try:
            want = parent_subset_diversity(records, attribute)
        except ValueError:
            with pytest.raises(ValueError, match="absent from all records"):
                subset_diversity(records, attribute)
        else:
            assert subset_diversity(iter(records), attribute) == want


def test_vendi_over_rows_whose_norms_overflow_or_underflow():
    rows = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
    plain = vendi_score(EmbeddingMatrix(["a", "b", "c"], rows))
    assert plain == pytest.approx(1.8898815748423097)
    for scales in ([[1e200], [1e200], [1.0]], [[1e-200], [1.0], [1e-200]]):
        extreme = EmbeddingMatrix(["a", "b", "c"], rows * np.array(scales))
        assert vendi_score(extreme) == pytest.approx(plain, rel=1e-12)
