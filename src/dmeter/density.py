"""Compactness of embedded data: local KNN density and global points-per-volume.

Per-point KNN density ranks points by mean similarity to their k nearest
neighbors (low values suggest outliers); data_density reports n over the
occupied volume, in raw and log form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_choice, check_int
from .vectors import _CHUNK_CELLS, EmbeddingMatrix, euclidean_matrix, unit_rows

SIMILARITIES = ("cosine", "inverse-euclidean")
VOLUME_MODES = ("bounding-box", "unit-hypercube")

EXACT_SEARCH_CAP = 50_000
"""Most points knn_density searches exactly.  The search compares all n² pairs:
at d=64 on a 2-vCPU Xeon with 2 BLAS threads the cosine search takes about
0.44 s at n=10,000 and 1.8 s at n=20,000, so about 11 s at this cap, and it
grows fourfold per doubling past it.  Memory stays bounded (cosine holds one
block of _CHUNK_CELLS similarities at a time), so the cap bounds time only.
inverse-euclidean forms every row difference, which keeps the distances exact
far from the origin but costs 20 to 30 times the cosine search: with one BLAS
thread, 0.81 s against 0.04 s at n=2,000, d=64, and 2.8 s against 0.10 s at
n=4,000, d=64, so about 7 minutes at this cap."""


@dataclass(frozen=True)
class DensityReport:
    """Per-point and global KNN density, aligned to EmbeddingMatrix labels."""

    global_density: float
    per_point_density: tuple
    params: dict


@dataclass(frozen=True)
class DataDensity:
    """n over occupied volume.  log_density is always finite; density itself
    can overflow or underflow in high dimension and is flagged instead of
    erroring."""

    density: float
    log_density: float
    volume_mode: str
    degenerate_dims: tuple
    flags: tuple


def _unclipped_similarity_block(block: np.ndarray, all_rows: np.ndarray,
                                similarity: str) -> np.ndarray:
    """_similarity_block before cosine's clip to [-1, 1]: a dot of two unit
    rows can round past it, as to 1.0000000000000002."""
    if similarity == "cosine":
        return block @ all_rows.T
    # inverse-euclidean: 1 / (1 + dist), from the row differences themselves;
    # |a|² + |b|² - 2a·b cancels every digit of rows far from the origin.
    return 1.0 / (1.0 + euclidean_matrix(block, all_rows))


def _similarity_block(block: np.ndarray, all_rows: np.ndarray, similarity: str) -> np.ndarray:
    """The similarity of each row of block to each of all_rows, in [-1, 1]."""
    sims = _unclipped_similarity_block(block, all_rows, similarity)
    if similarity == "cosine":
        np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def knn_density(emb: EmbeddingMatrix, k: int, similarity: str = "cosine") -> DensityReport:
    """Mean similarity of each point to its k nearest neighbors (self excluded).

    Neighbors are ranked by the chosen similarity; the mean does not depend
    on which of several tied neighbors is picked.  Search is exact full
    pairwise, capped at 50,000 points.
    """
    check_choice("similarity", similarity, SIMILARITIES)
    check_int("k", k)
    n = emb.n
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if n > EXACT_SEARCH_CAP:
        raise ValueError(
            f"n = {n} exceeds the exact-search cap of {EXACT_SEARCH_CAP}; "
            "sample the matrix down before measuring density"
        )

    rows = unit_rows(emb) if similarity == "cosine" else emb.matrix

    per_point = np.empty(n, dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sims = _unclipped_similarity_block(rows[start:stop], rows, similarity)
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        # The k largest, selected in place.  Ties share one value, so they do
        # not depend on which tie is picked; summed in descending order they
        # match a stable ranking bit for bit.  EmbeddingMatrix refuses
        # non-finite rows, so no NaN is there to be ranked.  Clipping to
        # [-1, 1] is monotone, so the top k of the raw similarities, clipped,
        # are the top k of the clipped ones: only they are clipped.
        # (inverse-euclidean similarities lie in (0, 1], which it keeps.)
        sims.partition(n - k, axis=1)
        top = -np.sort(-np.clip(sims[:, n - k:], -1.0, 1.0), axis=1)
        per_point[start:stop] = top.mean(axis=1)
        del sims, top  # before the next block is allocated

    return DensityReport(
        global_density=float(per_point.mean()),
        per_point_density=tuple(per_point.tolist()),
        params={"k": k, "similarity": similarity, "n": n},
    )


def data_density(emb: EmbeddingMatrix, volume_mode: str = "bounding-box") -> DataDensity:
    """Points per unit volume.

    bounding-box volume is the product of per-dimension extents; a dimension
    with zero extent (all points equal there) is widened to an epsilon-scaled
    span and flagged rather than collapsing the volume to zero.
    unit-hypercube assumes pre-normalized data and uses volume 1.
    """
    check_choice("volume mode", volume_mode, VOLUME_MODES)
    n = emb.n
    if n < 1:
        raise ValueError("need at least 1 point")

    degenerate, flags, log_volume = [], [], 0.0
    if volume_mode == "bounding-box":
        los, his = emb.matrix.min(axis=0), emb.matrix.max(axis=0)
        with np.errstate(over="ignore"):
            extents = his - los
        degenerate = np.flatnonzero(extents == 0.0).tolist()
        extents[degenerate] = np.finfo(np.float64).eps * np.maximum(1.0, np.abs(his[degenerate]))
        # An extent past the float range is twice his/2 - los/2, which is not.
        over = np.isinf(extents)
        spans = np.where(over, his / 2 - los / 2, extents).tolist()
        logs = np.fromiter(map(math.log, spans), float, len(spans)) + over * math.log(2.0)
        # Summed left to right, as a loop over dimensions adds.
        log_volume = float(np.add.accumulate(np.append(0.0, logs))[-1])
        if degenerate:
            flags.append("degenerate-extent")

    log_density = math.log(n) - log_volume
    try:
        density = math.exp(log_density)
    except OverflowError:
        density = math.inf
    if math.isinf(density):
        flags.append("overflow")
    elif density == 0.0:
        flags.append("underflow")

    return DataDensity(
        density=density,
        log_density=log_density,
        volume_mode=volume_mode,
        degenerate_dims=tuple(degenerate),
        flags=tuple(flags),
    )
