"""Embedding matrix loading and the fundamental metric-space measurements."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.corpus import Corpus, Record
from dmeter.errors import UndefinedValueError
from dmeter.vectors import (
    EmbeddingMatrix,
    align_to_corpus,
    cosine_matrix,
    cosine_similarity,
    euclidean,
    euclidean_matrix,
    load_embeddings,
    overflow_safe_norms,
    save_embeddings,
    unit_rows,
)


def naive_euclidean(u, v):
    """Summation-loop oracle."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def naive_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


class TestLoadEmbeddings:
    def test_small_file(self):
        emb = load_embeddings(io.StringIO("2 2\na 1 0\nb 0 1\n"))
        assert emb.labels == ("a", "b")
        assert emb.matrix.shape == (2, 2)
        np.testing.assert_array_equal(emb.vector("b"), [0.0, 1.0])

    def test_header_row_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 3 rows, found 2"):
            load_embeddings(io.StringIO("3 2\na 1 0\nb 0 1\n"))

    def test_row_length_mismatch_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(io.StringIO("2 2\na 1 0\nb 0 1 7\n"))

    def test_bad_row_after_blank_line_names_file_line(self):
        with pytest.raises(ValueError, match="line 4: could not convert"):
            load_embeddings(io.StringIO("2 2\n\na 1 2\nb x 3\n"))

    def test_duplicate_label_fatal(self):
        with pytest.raises(ValueError, match="duplicate label"):
            load_embeddings(io.StringIO("2 1\na 1\na 2\n"))

    def test_non_finite_value_fatal(self):
        with pytest.raises(ValueError, match="non-finite"):
            load_embeddings(io.StringIO("1 2\na 1 inf\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_its_file_line(self, value):
        with pytest.raises(ValueError, match="^line 4: non-finite value$"):
            load_embeddings(io.StringIO(f"2 2\na 1 0\n\nb {value} 1\n"))

    def test_line_separator_inside_a_row_is_whitespace(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1\u20280\nb 0\x0c1\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert emb.labels == ("a", "b")
        np.testing.assert_array_equal(emb.matrix, [[1.0, 0.0], [0.0, 1.0]])

    def test_line_not_utf8_named(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_bytes(b"2 2\na 1 0\nb\xff 0 1\n")
        with pytest.raises(ValueError, match="^line 3: not valid UTF-8$"):
            load_embeddings(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("header, reason", [
        (" 1 2 3 ", "header must be 'n d', got ' 1 2 3 '"),
        ("1 x", "header must be two integers, got '1 x'"),
    ])
    def test_header_error_quotes_the_line_without_its_ending(self, header, reason, ending):
        with pytest.raises(ValueError) as info:
            load_embeddings(io.StringIO(header + ending + "a 1 0" + ending, newline=""))
        assert str(info.value) == reason

    def test_write_read_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((1000, 50))
        labels = [f"row{i}" for i in range(1000)]
        path = tmp_path / "emb.vec"
        save_embeddings(EmbeddingMatrix(labels, matrix), path)
        loaded = load_embeddings(path)
        assert loaded.labels == tuple(labels)
        np.testing.assert_array_equal(loaded.matrix, matrix)


class TestEmbeddingMatrix:
    def test_label_row_count_must_match(self):
        with pytest.raises(ValueError, match="labels for"):
            EmbeddingMatrix(["a"], np.zeros((2, 2)))

    def test_subset_reorders(self):
        emb = EmbeddingMatrix(["a", "b", "c"], np.diag([1.0, 2.0, 3.0]))
        sub = emb.subset(["c", "a"])
        assert sub.labels == ("c", "a")
        np.testing.assert_array_equal(sub.matrix[0], [0, 0, 3.0])

    def test_align_to_corpus_requires_all_ids(self):
        corpus = Corpus([Record(id="r1", text="a"), Record(id="r2", text="b")])
        emb = EmbeddingMatrix(["r2", "r1"], np.eye(2))
        aligned = align_to_corpus(emb, corpus)
        assert aligned.labels == ("r1", "r2")
        partial = EmbeddingMatrix(["r1"], np.eye(1))
        with pytest.raises(ValueError, match="missing 1 of 2"):
            align_to_corpus(partial, corpus)


class TestEuclidean:
    def test_pythagorean(self):
        assert euclidean([0, 0], [3, 4]) == 5.0

    def test_identity(self):
        assert euclidean([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            euclidean([1, 2], [1, 2, 3])

    def test_differences_past_1e154_are_rescaled_not_squared_to_inf(self):
        assert euclidean([1e200], [0]) == 1e200
        assert euclidean([3e200, 0.0], [0.0, -4e200]) == pytest.approx(5e200, rel=1e-15)
        assert euclidean([[1e300, 1e300]], [[0.0, 0.0]]) == pytest.approx(math.sqrt(2.0) * 1e300)
        with np.errstate(over="ignore"):  # the difference itself overflows
            assert euclidean([1e308], [-1e308]) == math.inf
            assert euclidean([1.7e308, 1.7e308], [0.0, 0.0]) == math.inf

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            u = rng.standard_normal(7)
            v = rng.standard_normal(7)
            np.testing.assert_allclose(euclidean(u, v), naive_euclidean(u, v), rtol=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            u, v, w = rng.standard_normal((3, 5))
            duv = euclidean(u, v)
            assert duv >= 0
            assert duv == euclidean(v, u)
            assert duv <= euclidean(u, w) + euclidean(w, v) + 1e-9


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_parallel(self):
        assert cosine_similarity([1, 2], [2, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_antiparallel(self):
        assert cosine_similarity([1.0, 2.0], [-3.0, -6.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_undefined(self):
        with pytest.raises(UndefinedValueError):
            cosine_similarity([0, 0], [1, 1])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            u, v = rng.standard_normal((2, 6))
            a, b = rng.uniform(0.1, 10, size=2)
            np.testing.assert_allclose(
                cosine_similarity(a * u, b * v), cosine_similarity(u, v), atol=1e-12
            )

    def test_matches_naive_oracle_and_stays_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            u = rng.standard_normal(9)
            v = rng.standard_normal(9)
            got = cosine_similarity(u, v)
            np.testing.assert_allclose(got, naive_cosine(u, v), atol=1e-12)
            assert -1.0 <= got <= 1.0


class TestCosineAtExtremeScales:
    """Norms and dots that overflow or underflow are recomputed on rows
    scaled by their largest absolute entry; every other value is unchanged."""

    SCALES = (1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200)

    def test_overflowed_dot_is_not_a_distance_of_two(self):
        assert cosine_similarity([1e200, 0], [1e200, 1e200]) == pytest.approx(math.sqrt(0.5))
        assert cosine_similarity([1e200, 0], [-1e200, -1e200]) == pytest.approx(-math.sqrt(0.5))

    def test_underflowed_norm_is_not_zero_norm(self):
        assert cosine_similarity([1e-200, 0], [1e-200, 1e-200]) == pytest.approx(math.sqrt(0.5))
        assert cosine_similarity([1e-200, 0], [1e200, 0]) == 1.0
        with pytest.raises(UndefinedValueError):
            cosine_similarity([0.0, 0.0], [1e-200, 0])

    def test_scaled_inputs_keep_their_cosine(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u, v = rng.standard_normal((2, 7))
            a, b = rng.choice(self.SCALES, size=2)
            assert cosine_similarity(a * u, b * v) == pytest.approx(
                cosine_similarity(u, v), rel=1e-12, abs=1e-15)

    def test_well_scaled_inputs_take_the_plain_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u, v = rng.standard_normal((2, 5)) * rng.choice([1e-100, 1.0, 1e100])
            plain = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert cosine_similarity(u, v) == min(1.0, max(-1.0, plain))

    def test_unit_rows_of_extreme_rows(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((40, 6))
        scales = rng.choice(self.SCALES, size=(40, 1))
        got = unit_rows(EmbeddingMatrix([f"r{i}" for i in range(40)], rows * scales))
        want = rows / np.linalg.norm(rows, axis=1)[:, None]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.all(np.linalg.norm(got, axis=1) == pytest.approx(1.0))

    def test_unit_rows_unchanged_when_well_scaled(self):
        rows = np.random.default_rng(9).standard_normal((30, 4))
        got = unit_rows(EmbeddingMatrix([f"r{i}" for i in range(30)], rows))
        assert np.array_equal(got, rows / np.linalg.norm(rows, axis=1)[:, None])

    def test_unit_rows_still_rejects_a_zero_row(self):
        emb = EmbeddingMatrix(["tiny", "zero"], [[1e-200, 0.0], [0.0, 0.0]])
        with pytest.raises(UndefinedValueError, match="'zero'"):
            unit_rows(emb)


# --- row-pair arrays against the scalar routes they replaced --------------------


_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def scalar_cosine(u, v):
    """Oracle: cosine_similarity as it was before it became the 1×1 case of
    cosine_matrix, with its norm, rescaling and clamping rules inlined."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)

    def suspect(norm, dot):
        return ~((norm >= _FLOOR) & (norm < np.inf)) | ~np.isfinite(dot)

    with np.errstate(over="ignore", invalid="ignore"):
        nu, nv, dot = np.linalg.norm(u), np.linalg.norm(v), u @ v
    if suspect(nu, dot) or suspect(nv, dot):
        if not u.any() or not v.any():
            raise UndefinedValueError("cosine similarity undefined for zero-norm vector")
        u, v = u / np.max(np.abs(u)), v / np.max(np.abs(v))
        nu, nv, dot = np.linalg.norm(u), np.linalg.norm(v), u @ v
    return float(min(1.0, max(-1.0, float(dot) / (nu * nv))))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndefinedValueError as exc:
        return f"undefined: {exc}"


_SCALES = (1e-200, 1e-160, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e160, 1e200)


@st.composite
def row_pairs(draw):
    """Two row arrays of one width, each row scaled from 1e-200 to 1e200; some
    rows parallel or antiparallel to another, and sometimes a zero row."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, m, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n + m, dim))
    for i in draw(st.lists(st.integers(1, n + m - 1), max_size=3)):
        rows[i] = rows[0] * draw(st.sampled_from([-1.0, 1.0]))
    rows *= rng.choice(_SCALES, size=(n + m, 1))
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n + m - 1))] = 0.0
    return rows[:n], rows[n:]


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_cosine_matrix_matches_scalar_oracle(pair):
    a, b = pair
    want = [[_outcome(scalar_cosine, u, v) for v in b] for u in a]
    if any(isinstance(x, str) for row in want for x in row):
        # A zero row has no direction: the array route refuses the whole array.
        with pytest.raises(UndefinedValueError, match="zero-norm"):
            cosine_matrix(a, b)
        assert not (a.any(axis=1).all() and b.any(axis=1).all())
    else:
        assert cosine_matrix(a, b).tolist() == want
    for u, v in zip(a, b):
        assert _outcome(cosine_similarity, u, v) == _outcome(scalar_cosine, u, v)


@settings(max_examples=150, deadline=None)
@given(row_pairs())
def test_euclidean_matrix_matches_euclidean(pair):
    a, b = pair
    got = euclidean_matrix(a, b)
    assert got.tolist() == [[euclidean(u, v) for v in b] for u in a]
    assert np.isfinite(got).all()  # rows near 1e200 apart are rescaled, not squared to inf


def test_euclidean_matrix_rescales_only_the_overflowed_entries():
    a = np.array([[1e200, 0.0], [1.0, 2.0]])
    b = np.array([[0.0, 1e200], [4.0, 6.0]])
    got = euclidean_matrix(a, b)
    assert got[0, 0] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert got[0, 1] == got[1, 0] == 1e200
    assert got[1, 1] == 5.0
    with np.errstate(over="ignore"):  # 1e308 - (-1e308) overflows before any norm
        assert euclidean_matrix([[1e308], [1.0]], [[-1e308]]).tolist() == [[math.inf], [1e308]]


@pytest.mark.parametrize("u, v", [
    (1.0, 2.0), (np.float64(3.0), np.float64(4.0)), ([[1.0, 0.0]], [[0.0, 1.0]]),
    (np.ones((2, 3)), np.ones((2, 3))), ([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0], [[1.0, 2.0]]),
])
def test_cosine_similarity_needs_two_vectors_of_one_length(u, v):
    with pytest.raises(ValueError, match=r"need two 1-D vectors of one length, got \("):
        cosine_similarity(u, v)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_cosine_refuses_non_finite_input(bad):
    # A NaN used to be clamped to -1.0: cosine_similarity([inf, 0], [1, 0]) read -1.
    with pytest.raises(ValueError, match="finite"):
        cosine_similarity([bad, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        cosine_matrix(np.ones((2, 3)), [[1.0, bad, 2.0]])


@pytest.mark.parametrize("a, b", [
    (np.ones(3), np.ones((2, 3))), (np.ones((2, 3)), np.ones((2, 4))), (np.ones((1, 2, 3)),) * 2,
])
@pytest.mark.parametrize("fn", [cosine_matrix, euclidean_matrix])
def test_row_pair_arrays_need_two_2d_arrays_of_one_width(fn, a, b):
    with pytest.raises(ValueError, match="need two 2-D arrays"):
        fn(a, b)


def parent_euclidean(u, v) -> float:
    """euclidean as it was before it became the 1×1 case of euclidean_matrix,
    kept as an oracle."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    diff = (u - v).reshape(1, -1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(diff[0])
    return float(overflow_safe_norms(diff, np.array([norm]))[0])


@st.composite
def same_shape_arrays(draw):
    """Two arrays of one shape (0-d, empty, 1-D or 2-D), scaled by 10^-300..10^300."""
    shape = draw(st.sampled_from([(), (0,), (1,), (3,), (17,), (2, 3), (4, 1), (0, 2)]))
    seed, exponent = draw(st.integers(0, 2**32 - 1)), draw(st.integers(-300, 300))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    return rng.standard_normal(shape) * scale, rng.standard_normal(shape) * scale


@settings(max_examples=400, deadline=None)
@given(same_shape_arrays())
def test_euclidean_matches_the_norm_oracle(pair):
    u, v = pair
    assert euclidean(u, v) == parent_euclidean(u, v)
    assert euclidean(u.tolist(), v.tolist()) == parent_euclidean(u, v)

