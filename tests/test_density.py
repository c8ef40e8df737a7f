"""KNN density and points-per-volume measurements."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmeter import density
from dmeter.density import (SIMILARITIES, _unclipped_similarity_block, data_density,
                            knn_density)
from dmeter.errors import UndefinedValueError
from dmeter.vectors import EmbeddingMatrix, unit_rows


def emb_from(matrix, prefix="p"):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingMatrix([f"{prefix}{i}" for i in range(matrix.shape[0])], matrix)


def brute_force_knn_density(matrix, k, similarity="cosine"):
    """O(n^2) per-point oracle with explicit sort and index tie-breaks."""
    n = matrix.shape[0]
    out = []
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            if similarity == "cosine":
                s = float(
                    matrix[i] @ matrix[j]
                    / (np.linalg.norm(matrix[i]) * np.linalg.norm(matrix[j]))
                )
                s = min(1.0, max(-1.0, s))
            else:
                s = 1.0 / (1.0 + float(np.linalg.norm(matrix[i] - matrix[j])))
            sims.append((-s, j))
        sims.sort()
        out.append(sum(-s for s, _ in sims[:k]) / k)
    return out


class TestKnnDensity:
    def test_identical_unit_vectors(self):
        emb = emb_from(np.tile([0.6, 0.8], (5, 1)))
        for k in (1, 2, 4):
            rep = knn_density(emb, k)
            assert rep.global_density == pytest.approx(1.0, abs=1e-12)
            assert all(d == pytest.approx(1.0, abs=1e-12) for d in rep.per_point_density)

    def test_orthogonal_pair(self):
        rep = knn_density(emb_from([[1, 0], [0, 1]]), k=1)
        assert rep.global_density == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        emb = emb_from(np.eye(3))
        with pytest.raises(ValueError, match="k must be in"):
            knn_density(emb, 0)
        with pytest.raises(ValueError, match="k must be in"):
            knn_density(emb, 3)

    def test_search_cap_refuses_more_points(self, monkeypatch):
        monkeypatch.setattr(density, "EXACT_SEARCH_CAP", 3)
        with pytest.raises(ValueError, match="n = 4 exceeds the exact-search cap of 3"):
            knn_density(emb_from(np.eye(4)), 1)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            knn_density(emb_from([[1.0, 0.0]]), 1)

    def test_zero_norm_row_under_cosine_names_label(self):
        emb = EmbeddingMatrix(["ok", "bad"], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(UndefinedValueError, match="bad"):
            knn_density(emb, 1)
        # inverse-euclidean has no norm requirement
        rep = knn_density(emb, 1, similarity="inverse-euclidean")
        assert rep.global_density == pytest.approx(0.5, abs=1e-12)

    def test_unknown_similarity_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            knn_density(emb_from(np.eye(3)), 1, similarity="dot")

    @pytest.mark.parametrize("similarity", ["cosine", "inverse-euclidean"])
    def test_matches_brute_force_oracle(self, similarity):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((50, 4))
        rep = knn_density(emb_from(matrix), 5, similarity)
        oracle = brute_force_knn_density(matrix, 5, similarity)
        np.testing.assert_allclose(rep.per_point_density, oracle, atol=1e-12)
        assert rep.global_density == pytest.approx(float(np.mean(oracle)), abs=1e-12)

    def test_global_within_similarity_range(self):
        rng = np.random.default_rng(42)
        rep = knn_density(emb_from(rng.standard_normal((40, 3))), 7)
        assert -1.0 <= rep.global_density <= 1.0
        assert all(-1.0 <= d <= 1.0 for d in rep.per_point_density)

    def test_duplicating_points_cannot_decrease_density(self):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((20, 3))
        k = 4
        base = knn_density(emb_from(matrix), k).global_density
        doubled = knn_density(emb_from(np.vstack([matrix, matrix])), k).global_density
        assert doubled >= base - 1e-12

    def test_tie_break_by_ascending_row_index(self):
        # p1 and p2 are identical, both orthogonal to p0; the k=1 neighbor of
        # p0 is tied between them, and determinism requires picking index 1.
        emb = emb_from([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        rep = knn_density(emb, 1)
        again = knn_density(emb, 1)
        assert rep.per_point_density == again.per_point_density


    def test_inverse_euclidean_keeps_its_digits_far_from_the_origin(self):
        # |a|² + |b|² - 2a·b cancels to 0 here, which read 1.0 for both points.
        rep = knn_density(emb_from([[1e8, 0.0], [1e8 + 1, 0.0]]), 1, "inverse-euclidean")
        assert rep.per_point_density == (0.5, 0.5)
        rep = knn_density(emb_from([[1e9, 0.3], [1e9 + 0.5, 0.3]]), 1, "inverse-euclidean")
        assert rep.per_point_density == (1 / 1.5, 1 / 1.5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_euclidean_density_is_translation_invariant(data):
    n = data.draw(st.integers(2, 8), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    matrix = np.array(data.draw(st.lists(st.lists(st.integers(-1000, 1000), min_size=d,
                                                  max_size=d), min_size=n, max_size=n),
                                label="rows"), dtype=np.float64)
    offset = np.array(data.draw(st.lists(st.integers(-(2**40) + 1, 2**40 - 1), min_size=d,
                                         max_size=d), label="offset"), dtype=np.float64)
    k = data.draw(st.integers(1, n - 1), label="k")
    # Integer rows below 2**41 and their differences are exact, so the distances are too.
    here = knn_density(emb_from(matrix), k, "inverse-euclidean").per_point_density
    moved = knn_density(emb_from(matrix + offset), k, "inverse-euclidean").per_point_density
    assert here == moved


class TestDataDensity:
    def test_unit_square_corners(self):
        emb = emb_from([[0, 0], [0, 1], [1, 0], [1, 1]])
        res = data_density(emb)
        assert res.density == pytest.approx(4.0, abs=1e-12)
        assert res.degenerate_dims == ()

    def test_single_point_unit_hypercube(self):
        res = data_density(emb_from([[3.0, 7.0]]), volume_mode="unit-hypercube")
        assert res.density == 1.0
        assert res.log_density == 0.0

    def test_matches_extent_product_oracle(self):
        rng = np.random.default_rng(42)
        matrix = rng.uniform(-3, 3, size=(100, 3))
        res = data_density(emb_from(matrix))
        volume = 1.0
        for d in range(3):
            volume *= matrix[:, d].max() - matrix[:, d].min()
        assert res.density == pytest.approx(100 / volume, rel=1e-9)
        assert res.log_density == pytest.approx(math.log(100 / volume), rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((30, 4))
        a = data_density(emb_from(matrix)).density
        b = data_density(emb_from(matrix + 17.5)).density
        assert b == pytest.approx(a, rel=1e-9)

    def test_scaling_law(self):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((30, 4))
        c = 2.0
        a = data_density(emb_from(matrix))
        b = data_density(emb_from(c * matrix))
        assert b.density == pytest.approx(a.density / c**4, rel=1e-9)

    def test_degenerate_dimension_flagged_not_infinite(self):
        matrix = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
        res = data_density(emb_from(matrix))
        assert res.degenerate_dims == (1,)
        assert "degenerate-extent" in res.flags
        assert math.isfinite(res.log_density)

    def test_high_dimension_overflow_flagged_with_finite_log(self):
        rng = np.random.default_rng(42)
        matrix = rng.uniform(0, 1e-4, size=(20, 400))
        res = data_density(emb_from(matrix))
        assert "overflow" in res.flags
        assert res.density is not None and math.isinf(res.density)
        assert math.isfinite(res.log_density)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown volume mode"):
            data_density(emb_from([[1.0]]), volume_mode="sphere")

    def test_extent_past_the_float_range_has_a_finite_log(self):
        # The first extent, 2e308, overflows; its log is log(1e308) + log 2.
        res = data_density(emb_from([[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]]))
        assert res.log_density == -709.4838907146177
        assert res.log_density == pytest.approx(math.log(3) - 2 * math.log(1e154) - 2 * math.log(2))
        assert res.flags == () and res.degenerate_dims == ()
        top = data_density(emb_from([[1.7976931348623157e308], [-1.7976931348623157e308]]))
        assert top.log_density == pytest.approx(-math.log(1.7976931348623157e308))


# --- top-k by partition against the per-row ranking it replaced -----------------


def clipped_similarity_block(block, all_rows, similarity):
    """The similarity of each row of block to each of all_rows, in [-1, 1]:
    every cosine clipped, where knn_density clips only the ones it keeps."""
    sims = _unclipped_similarity_block(block, all_rows, similarity)
    if similarity == "cosine":
        np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def stable_argsort_knn_density(matrix, k, similarity):
    """Rank each row by a stable descending argsort, drop the point itself and
    average the first k similarities: the per-row loop knn_density ran before
    it took the top k by partition."""
    # Top-k selection is under test here, not normalization: unit_rows has its own tests.
    rows = unit_rows(emb_from(matrix)) if similarity == "cosine" else matrix
    sims = clipped_similarity_block(rows, rows, similarity)
    out = np.empty(matrix.shape[0])
    for i, row_order in enumerate(np.argsort(-sims, axis=1, kind="stable")):
        out[i] = sims[i, row_order[row_order != i][:k]].mean()
    return out


# A few repeated coordinate values make tied similarities and equal rows likely.
coordinate = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-10, 10)


@st.composite
def knn_matrices(draw):
    n = draw(st.integers(2, 12), label="n")
    d = draw(st.integers(1, 4), label="d")
    distinct = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                             min_size=1, max_size=n), label="distinct rows")
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n),
                 label="row picks")
    return np.array([distinct[i] for i in picks], dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(matrix=knn_matrices())
# Equal rows whose norm's square is subnormal: dividing by np.linalg.norm gives 0.99999933.
@example(matrix=np.array([[1.5634017740666165e-159]] * 2))
def test_top_k_matches_stable_argsort_oracle_bit_for_bit(matrix):
    n = matrix.shape[0]
    emb = emb_from(matrix)
    for similarity in SIMILARITIES:
        if similarity == "cosine" and not matrix.any(axis=1).all():
            continue
        for k in range(1, n):
            got = np.array(knn_density(emb, k, similarity).per_point_density)
            assert np.array_equal(got, stable_argsort_knn_density(matrix, k, similarity))


def _block_invariant_rows(rng, n, similarity):
    """n rows, some repeated, whose similarities have the same bits in every
    block size.  inverse-euclidean takes one dot per pair, so any rows do; the
    cosine matmul sums in an order that depends on the block's shape, so its
    rows hold 1 or 4 nonzero entries ±c, whose unit rows hold 0, ±0.5 and ±1
    and make every product and sum exact."""
    if similarity == "cosine":
        rows = rng.choice([-1.0, 1.0], size=(n, 4)) * rng.integers(1, 4, size=(n, 1))
        single = rng.random(n) < 0.5
        rows[single] *= np.eye(4)[rng.integers(0, 4, size=single.sum())]
    else:
        grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0], size=(n, 3))
        rows = np.where(rng.random((n, 1)) < 0.5, grid, rng.standard_normal((n, 3)))
    rows[rng.integers(0, n, size=n // 4)] = rows[0]
    return rows


@pytest.mark.parametrize("similarity", SIMILARITIES)
@pytest.mark.parametrize("n, rows_per_block", [(2, 1), (17, 2), (23, 3), (40, 1), (40, 3)])
def test_top_k_across_many_blocks_matches_stable_argsort_oracle(monkeypatch, similarity, n,
                                                                 rows_per_block):
    # Blocks of 1 to 3 rows, the last one short where the size does not divide
    # n; k past 8 reaches numpy's pairwise summation of each row's top k.
    monkeypatch.setattr(density, "_BLOCK_ROWS", rows_per_block)
    matrix = _block_invariant_rows(np.random.default_rng(n * 10 + rows_per_block), n, similarity)
    emb = emb_from(matrix)
    for k in range(1, n):
        got = np.array(knn_density(emb, k, similarity).per_point_density)
        assert np.array_equal(got, stable_argsort_knn_density(matrix, k, similarity))


def clip_every_similarity_knn_density(emb, k, similarity):
    """knn_density as it was before it clipped only the k similarities it
    keeps: every similarity of the block clipped, then the top k selected."""
    n = emb.n
    rows = unit_rows(emb) if similarity == "cosine" else emb.matrix
    per_point = np.empty(n)
    for start in range(0, n, density._BLOCK_ROWS):
        stop = min(start + density._BLOCK_ROWS, n)
        sims = clipped_similarity_block(rows[start:stop], rows, similarity)
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        sims.partition(n - k, axis=1)
        per_point[start:stop] = (-np.sort(-sims[:, n - k:], axis=1)).mean(axis=1)
    return per_point


@pytest.mark.parametrize("similarity", SIMILARITIES)
@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_clipping_the_kept_neighbours_matches_clipping_every_similarity(monkeypatch, similarity,
                                                                         rows_per_block):
    # [-2, -2, -2] against itself has a raw cosine of 1.0000000000000002, and
    # against [2, 2, 2] one of -1.0000000000000002.
    matrix = np.array([[-2.0, -2.0, -2.0]] * 3 + [[2.0, 2.0, 2.0]] * 2 + [[1.0, 0.0, -1.0]]
                      + np.random.default_rng(32).standard_normal((4, 3)).tolist())
    emb = emb_from(matrix)
    n = emb.n
    monkeypatch.setattr(density, "_BLOCK_ROWS", rows_per_block)
    rows = unit_rows(emb)
    raw = rows @ rows.T
    assert raw.max() > 1.0 and raw.min() < -1.0
    for k in range(1, n):
        got = np.array(knn_density(emb, k, similarity).per_point_density)
        assert np.array_equal(got, clip_every_similarity_knn_density(emb, k, similarity))


@settings(max_examples=100, deadline=None)
@given(matrix=knn_matrices(), rows_per_block=st.sampled_from([1, 3]))
def test_clipping_the_kept_neighbours_matches_clipping_every_similarity_on_drawn_rows(
        matrix, rows_per_block):
    emb = emb_from(matrix)
    n = emb.n
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_BLOCK_ROWS", rows_per_block)
        for similarity in SIMILARITIES:
            if similarity == "cosine" and not matrix.any(axis=1).all():
                continue
            for k in range(1, n):
                got = np.array(knn_density(emb, k, similarity).per_point_density)
                assert np.array_equal(got, clip_every_similarity_knn_density(emb, k, similarity))


def test_cosine_search_allocates_about_one_similarity_block():
    n, d = 2_000, 16
    emb = emb_from(np.random.default_rng(42).standard_normal((n, d)))
    assert n // density._BLOCK_ROWS >= 30  # so the search takes many blocks
    block_bytes = density._BLOCK_ROWS * n * 8 + n * d * 8  # one block and the unit rows
    tracemalloc.start()
    try:
        knn_density(emb, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block_bytes


# --- data_density against the per-dimension loop it replaced ---------------------


def parent_data_density(emb, volume_mode="bounding-box"):
    """data_density's log volume and degenerate dimensions as the loop over
    dimensions computed them, kept as an oracle; the rest is unchanged."""
    degenerate = []
    log_volume = 0.0
    if volume_mode == "bounding-box":
        los = emb.matrix.min(axis=0)
        his = emb.matrix.max(axis=0)
        extents = his - los
        eps = np.finfo(np.float64).eps
        for d in range(emb.dim):
            ext = float(extents[d])
            if ext == 0.0:
                ext = eps * max(1.0, abs(float(his[d])))
                degenerate.append(d)
            log_volume += math.log(ext)
    log_density = math.log(emb.n) - log_volume
    try:
        density = math.exp(log_density)
    except OverflowError:
        density = math.inf
    return log_density, density, tuple(degenerate)


@st.composite
def volume_matrices(draw):
    """n×d matrices from 1e-300 to 4e307 in scale (no extent overflows), some
    columns constant (degenerate), some with only subnormal spread."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e100, 1e300]))
    for j in draw(st.lists(st.integers(0, max(d - 1, 0)), max_size=4)) if d else []:
        matrix[:, j] = draw(st.sampled_from([0.0, 1.0, -0.5, 1e-310, 3e300, -4e307]))
    if d and draw(st.booleans()):
        matrix[:, 0] = rng.integers(0, 2, size=n) * 5e-324
    return np.clip(matrix, -4e307, 4e307)


@settings(max_examples=300, deadline=None)
@given(volume_matrices(), st.sampled_from(["bounding-box", "unit-hypercube"]))
def test_data_density_matches_the_dimension_loop_oracle(matrix, volume_mode):
    emb = emb_from(matrix)
    want = parent_data_density(emb, volume_mode)
    res = data_density(emb, volume_mode)
    # repr tells -0.0 from 0.0 and numpy integers from ints.
    assert repr((res.log_density, res.density, res.degenerate_dims)) == repr(want)


@pytest.mark.parametrize("k", [True, False, 2.0, "2", None])
def test_k_that_is_not_an_int_is_refused(k):
    with pytest.raises(ValueError) as info:
        knn_density(emb_from(np.eye(4)), k)
    assert str(info.value) == f"k must be an integer, got {k!r}"
