"""Embedding matrices and the fundamental metric-space measurements.

File format: first line "n d" (two integers); then n lines "label v1 ... vd",
whitespace separated.  Labels are free-form strings without whitespace and
typically match record ids.

euclidean() and cosine_similarity() live here because every derived measure
(density, dispersion, Vendi kernels, word mover's distance) builds on them.
"""

from __future__ import annotations

import numpy as np

from .corpus import read_lines
from .errors import UndefinedValueError


class EmbeddingMatrix:
    """n labeled vectors of equal dimension, stored as float64 rows."""

    __slots__ = ("_labels", "_matrix", "_index")

    def __init__(self, labels, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        labels = tuple(str(l) for l in labels)
        if len(labels) != matrix.shape[0]:
            raise ValueError(f"{len(labels)} labels for {matrix.shape[0]} rows")
        index = {}
        for i, label in enumerate(labels):
            if label in index:
                raise ValueError(f"duplicate label {label!r}")
            index[label] = i
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix contains non-finite values")
        self._labels = labels
        self._matrix = matrix
        self._index = index

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def vector(self, label: str) -> np.ndarray:
        return self._matrix[self._index[label]]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return self.n

    def subset(self, labels) -> "EmbeddingMatrix":
        """Rows for the given labels, in the given order."""
        labels = [str(l) for l in labels]
        missing = [l for l in labels if l not in self._index]
        if missing:
            raise KeyError(f"labels not present: {missing[:5]}")
        rows = self._matrix[[self._index[l] for l in labels]]
        return EmbeddingMatrix(labels, rows)

    def __repr__(self) -> str:
        return f"EmbeddingMatrix(n={self.n}, dim={self.dim})"


def load_embeddings(source) -> EmbeddingMatrix:
    """Parse the labeled-vector text format from a path or stream."""
    lines = [(i, ln) for i, ln in read_lines(source) if ln.strip()]
    if not lines:
        raise ValueError("empty embedding file")
    header_line = lines[0][1].rstrip("\r\n")
    header = header_line.split()
    if len(header) != 2:
        raise ValueError(f"header must be 'n d', got {header_line!r}")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"header must be two integers, got {header_line!r}") from None
    if n < 0 or d < 1:
        raise ValueError(f"invalid header n={n} d={d}")
    if len(lines) - 1 != n:
        raise ValueError(f"header declares {n} rows, found {len(lines) - 1}")
    labels = []
    matrix = np.empty((n, d), dtype=np.float64)
    for row, (i, line) in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != d + 1:
            raise ValueError(f"line {i}: expected label + {d} values, got {len(parts)} fields")
        labels.append(parts[0])
        try:
            matrix[row] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"line {lines[1 + int(finite.argmin())][0]}: non-finite value")
    return EmbeddingMatrix(labels, matrix)


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Write the labeled-vector text format (round-trips with load_embeddings)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.n} {emb.dim}\n")
        for label, row in zip(emb.labels, emb.matrix):
            fh.write(label + " " + " ".join(f"{v:.17g}" for v in row) + "\n")


def euclidean(u, v) -> float:
    """L2 distance: the 1×1 euclidean_matrix of u and v as rows.  Shapes must match."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(euclidean_matrix(u.reshape(1, -1), v.reshape(1, -1))[0, 0])


# Below this a norm's square is subnormal or 0: digits are lost, or all of them.
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def _suspect(norm, dot):
    """True where a cosine built from these norms and dot product may be
    wrong: a norm underflowed or overflowed, or the dot product overflowed.
    (With both norms above the floor, a dot that underflows to 0 is below
    one ulp of the cosine.)"""
    return ~((norm >= _NORM_FLOOR) & (norm < np.inf)) | ~np.isfinite(dot)


def _peak_scaled(rows: np.ndarray) -> np.ndarray:
    """rows divided by their largest absolute entry, along the last axis.

    Norms and dot products of the results lie within a few orders of 1, so
    they neither overflow nor underflow to 0, and cosines do not change."""
    return rows / np.max(np.abs(rows), axis=-1, keepdims=True)


def overflow_safe_norms(diff: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """norms, the L2 norms of diff along its last axis, with each inf whose
    differences are all finite recomputed (in place) from them scaled by
    their largest absolute entry: a difference past about 1e154 overflows
    when squared, though the norm need not.  Finite norms keep their bits."""
    redo = np.isinf(norms)
    if redo.any():
        redo &= np.isfinite(diff).all(axis=-1)
        rows = diff[redo]
        peak = np.max(np.abs(rows), axis=-1)
        scaled = rows / peak[:, None]
        with np.errstate(over="ignore"):
            norms[redo] = peak * np.sqrt(_dots(scaled, scaled))
    return norms


_CHUNK_CELLS = 4_000_000  # floats of row differences held at once in euclidean_matrix


def _pair_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need two 2-D arrays of rows of one length, got {a.shape} and {b.shape}")
    return a, b


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over k of x[..., k] * y[..., k], broadcast over the leading axes.

    Each entry is one BLAS dot, as u @ v and np.linalg.norm take in vectors,
    so the bits match theirs; A @ B.T and einsum sum in other orders."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def euclidean_matrix(a, b) -> np.ndarray:
    """L2 distance between a[i] and b[j] for every row pair, as an n×m
    array, with the row differences formed a block of rows at a time."""
    a, b = _pair_rows(a, b)
    costs = np.empty((len(a), len(b)))
    step = max(1, _CHUNK_CELLS // max(1, b.size))
    for start in range(0, len(a), step):
        diff = a[start:start + step, None] - b[None]
        with np.errstate(over="ignore"):
            norms = np.sqrt(_dots(diff, diff))
        costs[start:start + step] = overflow_safe_norms(diff, norms)
    return costs


def cosine_matrix(a, b) -> np.ndarray:
    """cos of the angle between a[i] and b[j] for every row pair, as an n×m
    array, clamped to [-1, 1] against rounding.  Non-finite input raises
    ValueError.

    A zero-norm row has no direction, so no defined similarity.  Where a norm
    underflows or overflows, or a dot product overflows, for non-zero rows,
    all three are recomputed on the rows scaled by their largest absolute
    entries.
    """
    a, b = _pair_rows(a, b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cosine similarity needs finite values")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norms_a, norms_b = np.sqrt(_dots(a, a)), np.sqrt(_dots(b, b))
        dots = _dots(a[:, None], b[None])
        sim = dots / (norms_a[:, None] * norms_b[None])
    redo = _suspect(norms_a[:, None], dots) | _suspect(norms_b[None], dots)
    if redo.any():
        if not (a.any(axis=1).all() and b.any(axis=1).all()):
            raise UndefinedValueError("cosine similarity undefined for zero-norm vector")
        a, b = _peak_scaled(a), _peak_scaled(b)
        norms_a, norms_b = np.sqrt(_dots(a, a)), np.sqrt(_dots(b, b))
        scaled = _dots(a[:, None], b[None]) / (norms_a[:, None] * norms_b[None])
        sim = np.where(redo, scaled, sim)
    return np.clip(sim, -1.0, 1.0)


def cosine_similarity(u, v) -> float:
    """cosine_matrix of two 1-D vectors of one length, as a float."""
    if np.ndim(u) != 1 or np.shape(u) != np.shape(v):
        raise ValueError(f"need two 1-D vectors of one length, got {np.shape(u)} and {np.shape(v)}")
    return float(cosine_matrix([u], [v])[0, 0])


def unit_rows(emb: EmbeddingMatrix) -> np.ndarray:
    """Rows scaled to unit L2 norm; a zero-norm row has no direction, so no cosine.

    A non-zero row whose norm underflows or overflows is scaled by its
    largest absolute entry first."""
    matrix = emb.matrix
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    redo = np.flatnonzero(_suspect(norms, 0.0))
    if not redo.size:
        return matrix / norms[:, None]
    zero = redo[~matrix[redo].any(axis=1)]
    if zero.size:
        raise UndefinedValueError(
            f"cosine similarity undefined for zero-norm row {emb.labels[zero[0]]!r}"
        )
    norms[redo] = 1.0
    unit = matrix / norms[:, None]
    scaled = _peak_scaled(matrix[redo])
    unit[redo] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit


def cosine_distance(u, v) -> float:
    return 1.0 - cosine_similarity(u, v)


def align_to_corpus(emb: EmbeddingMatrix, corpus) -> EmbeddingMatrix:
    """Rows reordered to match corpus record order; every record id must be present."""
    ids = [r.id for r in corpus.records]
    missing = [i for i in ids if i not in emb]
    if missing:
        raise ValueError(
            f"embeddings missing {len(missing)} of {len(ids)} record ids "
            f"(first missing: {missing[:5]})"
        )
    return emb.subset(ids)
