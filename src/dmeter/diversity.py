"""Diversity indices over frequency tables, labeled subsets, and embeddings.

Gini and Shannon indices over any FrequencyTable, the Vendi score (effective
number of distinct items from a similarity kernel's eigenvalue spectrum, or
from the Gram of an embedding's unit rows),
distinct-n lexical diversity, embedding dispersion around the centroid, and
categorical subset diversity over record attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, FrequencyTable, _ngram_code_blocks, _tally, check_ngram_n
from .errors import KernelInvalidError, UndefinedValueError, check_choice
from .vectors import EmbeddingMatrix, overflow_safe_norms, unit_rows

_SYMMETRY_TOL = 1e-9
_PSD_TOL = 1e-8          # eigenvalues of kernel/n below -this are an error
_EIG_CLAMP = 1e-10       # eigenvalues of kernel/n at or below this count as 0


class SimilarityKernel:
    """Validated n x n similarity matrix: symmetric, unit diagonal, entries in [-1,1]."""

    __slots__ = ("_matrix", "_source")

    def __init__(self, matrix, source: str = "user-defined"):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"kernel must be square, got shape {matrix.shape}")
        if matrix.shape[0] < 1:
            raise ValueError("kernel must be at least 1x1")
        asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"kernel asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL}")
        diag_err = float(np.max(np.abs(np.diagonal(matrix) - 1.0)))
        if diag_err > _SYMMETRY_TOL:
            raise ValueError(f"kernel diagonal deviates from 1 by {diag_err:.3e}")
        if float(np.max(np.abs(matrix))) > 1.0 + _SYMMETRY_TOL:
            raise ValueError("kernel entries must lie in [-1, 1]")
        self._matrix = (matrix + matrix.T) / 2.0
        self._source = source

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def source(self) -> str:
        return self._source

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"SimilarityKernel(n={self.n}, source={self._source!r})"


def kernel_from_embeddings(emb: EmbeddingMatrix) -> SimilarityKernel:
    """Cosine-similarity kernel over embedding rows."""
    unit = unit_rows(emb)
    sims = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(sims, 1.0)
    return SimilarityKernel(sims, source="cosine(embeddings)")


def gini_diversity(ft: FrequencyTable) -> float:
    """1 - sum of squared class proportions; 0 for a pure table."""
    if ft.total < 1:
        raise ValueError("frequency table is empty")
    total = ft.total
    return 1.0 - math.fsum((c / total) ** 2 for c in ft.entries.values())


def shannon_entropy(ft: FrequencyTable) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    if ft.total < 1:
        raise ValueError("frequency table is empty")
    total = ft.total
    return -math.fsum((c / total) * math.log(c / total) for c in ft.entries.values())


def vendi_score(kernel: SimilarityKernel | EmbeddingMatrix | np.ndarray) -> float:
    """Effective number of distinct items: exp of the Shannon entropy of the
    eigenvalues of kernel/n.

    1.0 when all items are identical, n when all are mutually orthogonal.
    The kernel must be positive semidefinite within tolerance; eigenvalues of
    kernel/n below -1e-8 are an error, tiny ones are clamped to zero.

    An EmbeddingMatrix stands for the cosine kernel U Uᵀ of its unit rows U.
    Its non-zero eigenvalues are those of the Gram UᵀU, so the smaller of the
    two (d x d when n > d) is decomposed: O(n·d²) time and O(n·d) memory, and
    no n x n kernel is formed (Friedman & Dieng, The Vendi Score, 2022).
    """
    if isinstance(kernel, EmbeddingMatrix):
        n = kernel.n
        if n < 1:
            raise ValueError("kernel must be at least 1x1")
        unit = unit_rows(kernel)
        gram = unit.T @ unit if n > kernel.dim else unit @ unit.T
    else:
        if not isinstance(kernel, SimilarityKernel):
            kernel = SimilarityKernel(kernel)
        n = kernel.n
        gram = kernel.matrix
    lam = np.linalg.eigvalsh(gram) / n
    if lam[0] < -_PSD_TOL:
        raise KernelInvalidError(
            f"kernel is not positive semidefinite: eigenvalue {lam[0] * n:.3e} "
            f"below tolerance -{_PSD_TOL:g} * n"
        )
    lam = np.where(lam <= _EIG_CLAMP, 0.0, lam)
    positive = lam[lam > 0.0]
    entropy = -float(np.sum(positive * np.log(positive)))
    return float(math.exp(entropy))


NGRAM_DENOMINATORS = ("total-ngrams", "vocabulary")


def ngram_diversity(corpus: Corpus, n: int, denominator: str = "total-ngrams") -> float:
    """Distinct n-grams over total n-grams (default), or over vocabulary size."""
    check_choice("denominator", denominator, NGRAM_DENOMINATORS)
    check_ngram_n(n)
    if n == 1:
        distinct, total = len(corpus.token_counts), corpus.total_tokens
    else:
        codes, counts = _tally(_ngram_code_blocks(corpus, n))
        distinct, total = codes.size, int(counts.sum())
    if total == 0:
        raise UndefinedValueError(f"corpus has no {n}-grams (all records shorter than {n} tokens)")
    return distinct / (total if denominator == "total-ngrams" else len(corpus.vocabulary))


def _dispersion(matrix: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        diff = matrix - matrix.mean(axis=0)
        return float(np.mean(overflow_safe_norms(diff, np.linalg.norm(diff, axis=1))))


def embedding_dispersion(emb: EmbeddingMatrix) -> float:
    """Mean euclidean distance of rows to their centroid; 0 iff all rows equal.

    When the centroid, a norm or their mean overflows, the rows are scaled
    down by a power of two that keeps n·√d·max|entry| finite, and the result
    is scaled back.  Finite results keep their bits."""
    if emb.n < 2:
        raise ValueError(f"need at least 2 rows, got {emb.n}")
    value = _dispersion(emb.matrix)
    if math.isfinite(value):  # the rows are finite, so only an overflow lands here
        return value
    # 2**shift is at least n·√d·max|entry| / 2**1022.
    shift = (math.frexp(emb.n * math.sqrt(emb.dim))[1]
             + math.frexp(np.max(np.abs(emb.matrix)))[1] - 1022)
    try:
        return math.ldexp(_dispersion(np.ldexp(emb.matrix, -shift)), shift)
    except OverflowError:  # the distance itself is past float's range
        return math.inf


@dataclass(frozen=True)
class SubsetDiversityReport:
    """Label proportions and entropy for one categorical record attribute."""

    attribute: str
    proportions: dict
    entropy: float
    n_labeled: int
    n_unlabeled: int


def subset_diversity(records, attribute: str) -> SubsetDiversityReport:
    """Distribution of an attribute's labels over the records that carry it.

    Unlabeled records are counted separately, never imputed.
    """
    attrs = [record.attributes or {} for record in records]
    labels = FrequencyTable.from_items(a[attribute] for a in attrs if attribute in a)
    if not labels.total:
        raise ValueError(f"attribute {attribute!r} is absent from all records")
    return SubsetDiversityReport(
        attribute=attribute,
        proportions={label: labels[label] / labels.total for label in sorted(labels)},
        entropy=shannon_entropy(labels),
        n_labeled=labels.total,
        n_unlabeled=len(attrs) - labels.total,
    )
