"""Distribution-shape measurements: summary statistics, burstiness, Zipf-law
fit, and n-gram language-model perplexity.

All logs are natural; entropy-adjacent quantities are in nats.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .corpus import (Corpus, FrequencyTable, _distinct, _merged, _record_blocks, _run_starts,
                     decode_json_line, read_lines, record_id)
from .errors import UndefinedValueError, check_choice, check_int, check_smoothing

# --- summary statistics -------------------------------------------------------


@dataclass(frozen=True)
class SummaryStats:
    """Central tendency and dispersion of a real-valued sample.

    Fields that need more observations than provided (variance needs 2,
    skewness 3, kurtosis 4) are None.  Skewness/kurtosis are also None when
    every value is equal.
    """

    count: int
    mean: float
    median: float
    modes: tuple
    min: float
    max: float
    variance: float | None = None
    std: float | None = None
    skewness: float | None = None
    excess_kurtosis: float | None = None


# Below this largest magnitude, a deviation's fourth power may lose digits as a
# subnormal; above it, every power that moves a moment is normal for any sample
# of fewer than 2**50 values.
_MOMENT_FLOOR = 2.0 ** -160


def _central_sums(vals: list[float]) -> tuple[float, float, float, float]:
    """The mean, and the sums of the squared, cubed and fourth-power deviations from it."""
    mean = math.fsum(vals) / len(vals)
    devs = [v - mean for v in vals]
    return mean, *(math.fsum(d ** k for d in devs) for k in (2, 3, 4))


def _ldexp(x: float, exp: int) -> float:
    """x * 2**exp, an infinity of x's sign where that passes the float range."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


def summarize(values: Sequence[float]) -> SummaryStats:
    """Standard summary statistics.

    Unbiased variance; adjusted Fisher-Pearson sample skewness; sample excess
    kurtosis; median of an even count is the mean of the middle pair; all
    tied modes are reported, sorted ascending.  The moments do not depend on
    scale: when a sum or a power overflows, or the largest magnitude is below
    _MOMENT_FLOOR, they are taken over the values scaled by the power of two
    that brings it into [0.5, 1), which is exact, and variance and std are
    scaled back.  Other samples keep their bits.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")

    vals_sorted = sorted(vals)
    mid = n // 2
    median = vals_sorted[mid]
    if n % 2 == 0:
        a, b = vals_sorted[mid - 1], median
        # a + b can pass the float range where their mean does not.
        median = a / 2 + b / 2 if math.isinf(a + b) else (a + b) / 2.0

    counts = Counter(vals)
    top = max(counts.values())
    modes = tuple(sorted(v for v, c in counts.items() if c == top))

    peak = max(-vals_sorted[0], vals_sorted[-1])
    mean = None
    try:
        mean, m2, m3, m4 = _central_sums(vals)
    except OverflowError:
        if not math.isfinite(peak):  # an infinity beside values whose sum overflows
            raise
    scale = 0
    if (mean is None or peak < _MOMENT_FLOOR) and peak > 0:
        scale = math.frexp(peak)[1]
        scaled_mean, m2, m3, m4 = _central_sums([math.ldexp(v, -scale) for v in vals])
        if mean is None:
            mean = math.ldexp(scaled_mean, scale)

    variance = std = skewness = kurtosis = None
    if n >= 2:
        scaled_variance = m2 / (n - 1)
        variance = _ldexp(scaled_variance, 2 * scale)
        std = _ldexp(math.sqrt(scaled_variance), scale)
        if n >= 3 and scaled_variance > 0:
            g1 = (m3 / n) / (m2 / n) ** 1.5
            skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            if n >= 4:
                g2 = (m4 / n) / (m2 / n) ** 2 - 3.0
                kurtosis = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))

    return SummaryStats(
        count=n,
        mean=mean,
        median=median,
        modes=modes,
        min=vals_sorted[0],
        max=vals_sorted[-1],
        variance=variance,
        std=std,
        skewness=skewness,
        excess_kurtosis=kurtosis,
    )


# --- burstiness ---------------------------------------------------------------


# Below this largest gap, a squared deviation may lose digits as a subnormal;
# above it, every nonzero one is normal for any sample of fewer than 2**50 gaps.
_GAP_FLOOR = 2.0 ** -400


def _mean_std(gaps: np.ndarray) -> tuple[float, float]:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(gaps.mean()), float(gaps.std())


def burstiness(gaps: Sequence[float]) -> float:
    """B = (sigma - mu) / (sigma + mu) over inter-event gaps.

    -1 for a perfectly periodic signal, near 0 for Poisson/exponential gaps,
    approaching 1 for extremely bursty ones.  sigma is the population
    standard deviation.  B does not depend on scale: when a sum or a square
    overflows, or the largest gap is below _GAP_FLOOR, B is taken over the
    gaps scaled by the power of two that brings the largest into [0.5, 1),
    which is exact.  Other gaps keep their bits.
    """
    gaps = np.asarray(list(gaps), dtype=np.float64)
    if gaps.size < 2:
        raise ValueError(f"need at least 2 gaps, got {gaps.size}")
    if np.any(gaps < 0):
        raise ValueError("gaps must be non-negative")
    peak = float(gaps.max())
    if peak == 0.0:
        raise UndefinedValueError("burstiness undefined for all-zero gaps")
    mu, sigma = _mean_std(gaps)
    if math.isfinite(peak) and not (peak >= _GAP_FLOOR and math.isfinite(mu + sigma)):
        mu, sigma = _mean_std(np.ldexp(gaps, -math.frexp(peak)[1]))
    return (sigma - mu) / (sigma + mu)


def timestamp_gaps(corpus: Corpus) -> list[float]:
    """Inter-event intervals between sorted record timestamps; ValueError
    naming a gap past the float range."""
    stamps = sorted(r.timestamp for r in corpus.records if r.timestamp is not None)
    gaps = []
    for a, b in zip(stamps, stamps[1:]):
        try:
            gaps.append(float(b - a))
        except OverflowError:
            raise ValueError(
                f"the gap between timestamps {a} and {b} is past the float range") from None
    return gaps


def token_recurrence_gaps(corpus: Corpus, token: str) -> list[float]:
    """Gaps between successive occurrences of a token in the concatenated
    record-order token stream."""
    tid = corpus.token_id(token)
    if tid is None:
        return []
    return np.diff(np.flatnonzero(corpus.token_ids == tid)).astype(np.float64).tolist()


# --- Zipf fit -----------------------------------------------------------------

ZIPF_METHODS = ("discrete-mle", "loglog-regression")
_ALPHA_FLOOR = 1e-6
_ALPHA_CEIL = 50.0
LOW_CONFIDENCE_RANKS = 10


@dataclass(frozen=True)
class ZipfFit:
    """Fitted rank-frequency power law: frequency proportional to rank^(-alpha)."""

    alpha: float
    ks_distance: float
    n_ranks: int
    fit_method: str
    flags: tuple = ()


def _zipf_cdf(alpha: float, n_ranks: int) -> np.ndarray:
    weights = np.arange(1, n_ranks + 1, dtype=np.float64) ** (-alpha)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


_EPS = float(np.finfo(np.float64).eps)


def _brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * _EPS,
            maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4) step for step as scipy.optimize.brentq
    runs it, so the roots are the same floats: keep the bracket [xcur, xblk]
    with |f(xcur)| smallest, try secant or inverse quadratic steps, and
    bisect when a step is too long or progress too slow.  Stops when the
    bracket's half-width is below (xtol + rtol * |xcur|) / 2.  A NaN from f
    raises ValueError; no convergence in maxiter steps raises RuntimeError.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _mle_alpha(counts: np.ndarray) -> tuple[float, bool]:
    """Maximize the rank-distribution likelihood p_r = r^-alpha / H(alpha).

    The score equation is E_alpha[ln r] = (sum c_r ln r) / N; the left side
    decreases monotonically in alpha, so it has a unique root, bracketed on
    [floor, ceil] with boundary clamping.
    """
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    log_ranks = np.log(ranks)
    target = float(np.dot(counts, log_ranks) / counts.sum())

    def score(alpha: float) -> float:
        weights = ranks ** (-alpha)
        return float(np.dot(weights, log_ranks) / weights.sum()) - target

    lo, hi = score(_ALPHA_FLOOR), score(_ALPHA_CEIL)
    if lo <= 0.0:
        return _ALPHA_FLOOR, True
    if hi >= 0.0:
        return _ALPHA_CEIL, True
    return _brentq(score, _ALPHA_FLOOR, _ALPHA_CEIL, xtol=1e-12), False


def _regression_alpha(counts: np.ndarray) -> tuple[float, bool]:
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
    alpha = -float(slope)
    if alpha < _ALPHA_FLOOR:
        return _ALPHA_FLOOR, True
    if alpha > _ALPHA_CEIL:
        return _ALPHA_CEIL, True
    return alpha, False


def zipf_fit(ft: FrequencyTable, fit_method: str = "discrete-mle") -> ZipfFit:
    """Fit frequency proportional to rank^(-alpha) over descending-count ranks.

    Reports the fitted exponent and the Kolmogorov-Smirnov distance between
    the observed and fitted rank CDFs.  Fits over fewer than 10 distinct
    items are flagged low-confidence.
    """
    check_choice("fit method", fit_method, ZIPF_METHODS)
    if len(ft) < 2:
        raise UndefinedValueError("Zipf fit undefined for fewer than 2 distinct items")

    counts = np.asarray(sorted(ft.entries.values(), reverse=True), dtype=np.float64)
    flags = []
    if counts.size < LOW_CONFIDENCE_RANKS:
        flags.append("low-confidence")

    if fit_method == "discrete-mle":
        alpha, at_boundary = _mle_alpha(counts)
    else:
        alpha, at_boundary = _regression_alpha(counts)
    if at_boundary:
        flags.append("alpha-boundary")

    observed_cdf = np.cumsum(counts) / counts.sum()
    ks = float(np.max(np.abs(observed_cdf - _zipf_cdf(alpha, counts.size))))
    return ZipfFit(
        alpha=alpha,
        ks_distance=ks,
        n_ranks=int(counts.size),
        fit_method=fit_method,
        flags=tuple(flags),
    )


# --- n-gram language model and perplexity --------------------------------------

# Tokens are strings, so tuple sentinels can never collide with one.
BOS = ("<bos>",)  # context symbol for a record's first token
OOV = ("<oov>",)  # explicit out-of-vocabulary bucket


@dataclass(frozen=True)
class NgramLM:
    """Additively smoothed unigram or bigram model with an explicit OOV bucket.

    Conditional probabilities normalize over vocab + OOV (vocab_size + 1
    outcomes), so they sum to 1 per context for any smoothing >= 0.
    """

    order: int
    smoothing: float
    vocab: frozenset
    vocab_size: int
    total_tokens: int
    unigram_counts: dict
    bigram_counts: dict = field(default_factory=dict)
    context_counts: dict = field(default_factory=dict)
    tokenizer_config: object = None

    def prob(self, token: str, context: str | None = None) -> float:
        """p(token | context) for bigram order, p(token) for unigram."""
        if self.order != 1 and context is None:
            raise ValueError("bigram model needs a context token")
        return float(_outcome_probs(self, [token], [context])[0])


def _outcome_probs(lm: NgramLM, tokens, contexts) -> np.ndarray:
    """lm's probability of each token after its context (the context is
    ignored at unigram order).  A token outside the vocabulary, and a context
    other than BOS outside it, count as OOV."""
    vocab = lm.vocab
    tokens = [t if t in vocab else OOV for t in tokens]
    if lm.order == 1:
        counts = [lm.unigram_counts.get(t, 0) for t in tokens]
        totals = [lm.total_tokens] * len(tokens)
    else:
        contexts = [c if c in vocab or c == BOS else OOV for c in contexts]
        counts = [lm.bigram_counts.get(pair, 0) for pair in zip(contexts, tokens)]
        totals = [lm.context_counts.get(c, 0) for c in contexts]
    return _smoothed(lm, np.array(counts, dtype=np.float64), np.array(totals, dtype=np.float64))


def _smoothed(lm: NgramLM, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """(count + alpha) / (total + alpha * bins) per element, 0 where the denominator is;
    when alpha * bins overflows, alpha > 0 divides count and total first."""
    alpha, bins = lm.smoothing, lm.vocab_size + 1  # vocab plus the OOV bucket
    if math.isinf(alpha * bins):
        return (counts / alpha + 1) / (totals / alpha + bins)
    dens = totals + alpha * bins
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dens == 0.0, 0.0, (counts + alpha) / dens)


def _pair_codes(corpus: Corpus, start: int, stop: int) -> np.ndarray:
    """context * (n_types + 1) + token for each token of records start to
    stop: the token as its vocabulary index, and the context as the index of
    the token before it, or n_types, standing for BOS, at a record's first."""
    ids, offsets = corpus.token_ids, corpus.record_offsets
    n_keys = len(corpus.vocabulary) + 1  # the vocabulary and BOS
    bounds = offsets[start:stop + 1] - offsets[start]
    tokens = ids[offsets[start]:offsets[stop]]
    codes = np.empty(tokens.size, dtype=np.int64)
    codes[1:] = tokens[:-1]
    codes[bounds[:-1][np.diff(bounds) > 0]] = n_keys - 1
    codes *= n_keys
    codes += tokens
    return codes


def _bigram_table(corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (context, token) codes of the corpus (_pair_codes),
    ascending, how many tokens each holds, and, per context index, how many
    tokens follow that context.

    A block of records at a time (_record_blocks): each block's distinct codes
    and counts are merged into the table, so no temporary spans the corpus."""
    n_keys = len(corpus.vocabulary) + 1
    codes, counts = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for start, stop in _record_blocks(corpus):
        codes, counts = _merged(codes, counts, *_distinct(_pair_codes(corpus, start, stop)))
    # The codes ascend, and so do their contexts.
    contexts = codes // n_keys
    first = _run_starts(contexts)
    totals = np.zeros(n_keys, dtype=np.int64)
    totals[contexts[first]] = np.add.reduceat(counts, first)
    return codes, counts, totals


def _check_lm_options(order, smoothing) -> None:
    """train_lm's checks of its order and smoothing, which come before its
    check of the corpus."""
    check_int("order", order)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    check_smoothing(smoothing)


def _check_training(corpus: Corpus, order, smoothing) -> None:
    """The argument checks of train_lm, which the self route shares."""
    _check_lm_options(order, smoothing)
    if corpus.n_records == 0:
        raise ValueError("cannot train on an empty corpus")


def train_lm(corpus: Corpus, order: int = 1, smoothing: float = 1.0) -> NgramLM:
    """Count-based unigram or bigram model over the corpus token stream.

    smoothing = 0 gives the exact MLE (safe only for evaluating the training
    corpus itself); larger values shift mass toward uniform over vocab + OOV.
    """
    _check_training(corpus, order, smoothing)

    unigram = dict(corpus.token_counts.entries)
    bigram: dict = {}
    contexts: dict = {}
    if order == 2:
        keys = (*corpus.vocabulary, BOS)
        codes, counts, totals = _bigram_table(corpus)
        ctx, tokens = np.divmod(codes, len(keys))
        pairs = zip(map(keys.__getitem__, ctx.tolist()), map(keys.__getitem__, tokens.tolist()))
        bigram = dict(zip(pairs, counts.tolist()))
        contexts = {keys[c]: n for c, n in enumerate(totals.tolist()) if n}
    return NgramLM(
        order=order,
        smoothing=float(smoothing),
        vocab=frozenset(corpus.vocabulary),
        vocab_size=len(corpus.vocabulary),
        total_tokens=corpus.total_tokens,
        unigram_counts=unigram,
        bigram_counts=bigram,
        context_counts=contexts,
        tokenizer_config=corpus.tokenizer_config,
    )


@dataclass(frozen=True)
class PerplexityResult:
    """Corpus perplexity with per-record values for anomaly ranking."""

    perplexity: float
    n_tokens: int
    per_record: dict  # record id -> (perplexity, n_tokens)
    flags: tuple = ()
    provenance: str = "self-contained"


def _exp_rate(logprob: float, n: int) -> float:
    """exp(-logprob / n): math.inf at logprob -inf, and past the float range."""
    rate = -logprob / n
    try:
        return math.exp(rate)
    except OverflowError:
        return math.inf


def _aggregate(rows, empty_message: str, provenance: str = "self-contained",
               extra_flags: tuple = ()) -> PerplexityResult:
    """Corpus and per-record perplexity from rows {record id: (logprob, n_tokens)},
    summed in row order.  Where the log-probability sum or the token count
    passes the float range, both are taken over 2**k, 2**k above the row
    count, which brings them back into it; sums in range keep their bits.  The
    result is flagged infinite when the corpus value is, whatever one
    record's is."""
    total_logprob = 0.0
    total_tokens = 0
    per_record = {}
    for rid, (logprob, n) in rows.items():
        per_record[rid] = (_exp_rate(logprob, n), n)
        total_logprob += logprob
        total_tokens += n
    if total_tokens == 0:
        raise UndefinedValueError(empty_message)
    if math.isinf(total_logprob) or total_tokens > sys.float_info.max:
        k = len(rows).bit_length()
        scaled = math.fsum(math.ldexp(logprob, -k) for logprob, _ in rows.values())
        value = _exp_rate(scaled, total_tokens / 2 ** k)
    else:
        value = _exp_rate(total_logprob, total_tokens)
    return PerplexityResult(
        perplexity=value,
        n_tokens=total_tokens,
        per_record=per_record,
        flags=(("infinite",) if math.isinf(value) else ()) + extra_flags,
        provenance=provenance,
    )


_NO_TOKENS = "perplexity undefined for a corpus with no tokens"


def perplexity(lm: NgramLM, corpus: Corpus) -> PerplexityResult:
    """exp of the mean negative log-probability per token.

    A zero-probability token (smoothing 0 on unseen data) makes the value
    infinite; that is reported as a flagged result, not an exception.
    """
    if lm.tokenizer_config is not None and lm.tokenizer_config != corpus.tokenizer_config:
        raise ValueError(
            f"tokenizer mismatch: model {lm.tokenizer_config} vs corpus {corpus.tokenizer_config}"
        )
    return _aggregate(_logprob_rows(lm, corpus), _NO_TOKENS)


def _self_perplexity(corpus: Corpus, order: int, smoothing: float) -> PerplexityResult:
    """perplexity(train_lm(corpus, order, smoothing), corpus), the same floats,
    without building the model's count tables.

    Every token is in the corpus's own vocabulary, so no outcome is OOV, and
    each outcome's count comes from the token store: the type counts at order
    1, _bigram_table at order 2.
    """
    _check_training(corpus, order, smoothing)
    # The outcome arrays go with _block_logs, before _aggregate runs.
    blocks = _block_logs(corpus, *_self_outcome_table(corpus, order, smoothing))
    return _aggregate(_record_sums(corpus, blocks), _NO_TOKENS)


def _self_outcome_table(corpus: Corpus, order: int,
                        smoothing: float) -> tuple[np.ndarray | None, np.ndarray]:
    """_outcome_table of the model train_lm(corpus, order, smoothing) would train."""
    # All that _smoothed reads of a model.
    model = SimpleNamespace(smoothing=float(smoothing), vocab_size=len(corpus.vocabulary))
    if order == 1:
        table, totals = None, float(corpus.total_tokens)
        # The counts in vocabulary order, which is the table's.
        counts = np.fromiter(corpus.token_counts.entries.values(), dtype=np.float64,
                             count=model.vocab_size)
    else:
        table, counts, totals = _bigram_table(corpus)
        counts = counts.astype(np.float64)
        totals = totals.astype(np.float64)[table // (model.vocab_size + 1)]
    probs = _smoothed(model, counts, totals)
    del counts, totals  # before _outcome_logs makes its arrays
    return table, _outcome_logs(probs)


def _logprob_rows(lm: NgramLM, corpus: Corpus) -> dict:
    """{record id: (total log-probability, n_tokens)} for each non-empty record."""
    return _record_sums(corpus, _block_logs(corpus, *_outcome_table(lm, corpus)))


def _record_sums(corpus: Corpus, blocks) -> dict:
    """{record id: (sum of its tokens' logprobs, n_tokens)} for each non-empty
    record, from (start, stop, logprobs) blocks of records in order, as
    _block_logs gives them."""
    records, offsets = corpus.records, corpus.record_offsets
    rows = {}
    for start, stop, logprobs in blocks:
        bounds = (offsets[start:stop + 1] - offsets[start]).tolist()
        for record, a, b in zip(records[start:stop], bounds, bounds[1:]):
            if b > a:
                # accumulate adds left to right, as a per-token loop does; sum and
                # reduceat add pairwise, so their last bits differ.
                rows[record.id] = (float(np.add.accumulate(logprobs[a:b])[-1]), b - a)
    return rows


def _block_logs(corpus: Corpus, table: np.ndarray | None, logs: np.ndarray):
    """(start, stop, the log-probability of each token of records start to
    stop) for each block of records (_record_blocks).  logs holds one value
    per outcome: per vocabulary index when table is None (order 1), else per
    code of the sorted _bigram_table codes."""
    offsets = corpus.record_offsets
    for start, stop in _record_blocks(corpus):
        if table is None:
            yield start, stop, logs[corpus.token_ids[offsets[start]:offsets[stop]]]
        else:
            yield start, stop, logs[_table_index(table, _pair_codes(corpus, start, stop))]


def _table_index(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each code's index into the sorted table that holds it.  The codes are
    looked up sorted, so searchsorted walks the table once, in order."""
    order = codes.argsort()
    index = np.empty_like(order)
    index[order] = np.searchsorted(table, codes[order])
    return index


def _outcome_table(lm: NgramLM, corpus: Corpus) -> tuple[np.ndarray | None, np.ndarray]:
    """The outcomes of the corpus's tokens as _block_logs reads them, and ln
    lm.prob of each; -inf where the probability is zero.

    Each distinct (context, token) outcome is looked up in the model once,
    and math.log runs once per distinct probability, so every value is the
    one NgramLM.prob and math.log give for that token.
    """
    if lm.order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {lm.order}")
    vocab = corpus.vocabulary
    if lm.order == 1:
        return None, _outcome_logs(_outcome_probs(lm, vocab, None))
    keys = (*vocab, BOS)
    table = _bigram_table(corpus)[0]
    contexts, tokens = np.divmod(table, len(keys))
    probs = _outcome_probs(lm, map(keys.__getitem__, tokens.tolist()),
                           map(keys.__getitem__, contexts.tolist()))
    return table, _outcome_logs(probs)


def _token_logprobs(lm: NgramLM, corpus: Corpus) -> np.ndarray:
    """ln lm.prob of every corpus token in its record context, in token
    order; -inf where the probability is zero."""
    blocks = _block_logs(corpus, *_outcome_table(lm, corpus))
    return np.concatenate([logs for _, _, logs in blocks])


def _outcome_logs(probs: np.ndarray) -> np.ndarray:
    """ln probs, -inf where the probability is zero; math.log runs once per
    distinct probability."""
    distinct, which = np.unique(probs, return_inverse=True)
    logs = np.array([-math.inf if p <= 0.0 else math.log(p) for p in distinct.tolist()])
    return logs[which]


def perplexity_from_logprobs(source, corpus: Corpus | None = None) -> PerplexityResult:
    """Perplexity from an external model's log-probability file.

    One JSON object per line: {"id": record id, "logprob": total natural-log
    probability of the record, "n_tokens": integer}.  Each id may appear once.
    When a corpus is given, every line's id must belong to it, and a file
    that leaves some of its records out is flagged partial-coverage.
    """
    known_ids = {r.id for r in corpus.records} if corpus is not None else None
    rows = {}
    try:  # read_lines names a line that is not valid UTF-8 itself
        for line_no, line in read_lines(source):
            if not line.strip():
                continue
            try:
                rid, logprob, n = _logprob_row(line)
                if known_ids is not None and rid not in known_ids:
                    raise ValueError(f"unknown record id {rid!r}")
                if rid in rows:
                    raise ValueError(f"duplicate record id {rid!r}")
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            rows[rid] = (logprob, n)
    except ValueError as exc:
        raise ValueError(f"logprob file {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read logprob file {source!r}: {exc.strerror}") from None
    partial = known_ids is not None and len(rows) < len(known_ids)
    return _aggregate(rows, "logprob file contains no records", provenance="external-model",
                      extra_flags=("partial-coverage",) if partial else ())


def _logprob_row(line: str) -> tuple[str, float, int]:
    """(id, logprob, n_tokens) from one logprob file line; ValueError saying what is wrong."""
    obj = decode_json_line(line)
    try:
        rid, logprob, n = obj["id"], obj["logprob"], obj["n_tokens"]
    except (KeyError, TypeError):
        raise ValueError('a line must be an object with "id", "logprob" and "n_tokens"') from None
    rid = record_id(rid)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n_tokens must be a JSON integer, got {n!r}")
    if n < 1:
        raise ValueError("n_tokens must be >= 1")
    if isinstance(logprob, bool) or not isinstance(logprob, (int, float)):
        raise ValueError(f"logprob must be a JSON number, got {logprob!r}")
    if not logprob <= 0:  # also refuses NaN
        raise ValueError(f"logprob must be <= 0, got {logprob!r}")
    try:
        float(n)  # _aggregate divides by n as a float
        logprob = float(logprob)
    except OverflowError:
        raise ValueError("n_tokens and logprob must fit in a float") from None
    return rid, logprob, n
