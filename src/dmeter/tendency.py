"""Distribution-shape measurements: summary statistics, burstiness, Zipf-law
fit, and n-gram language-model perplexity.

All logs are natural; entropy-adjacent quantities are in nats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus, FrequencyTable, decode_json_line, read_lines
from .errors import UndefinedValueError

# --- summary statistics -------------------------------------------------------


@dataclass(frozen=True)
class SummaryStats:
    """Central tendency and dispersion of a real-valued sample.

    Fields that need more observations than provided (variance needs 2,
    skewness 3, kurtosis 4) are None.  Skewness/kurtosis are also None for
    zero-variance samples.
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


def summarize(values: Sequence[float]) -> SummaryStats:
    """Standard summary statistics.

    Unbiased variance; adjusted Fisher-Pearson sample skewness; sample excess
    kurtosis; median of an even count is the mean of the middle pair; all
    tied modes are reported, sorted ascending.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")

    vals_sorted = sorted(vals)
    mean = math.fsum(vals) / n
    mid = n // 2
    median = vals_sorted[mid] if n % 2 else (vals_sorted[mid - 1] + vals_sorted[mid]) / 2.0

    counts = Counter(vals)
    top = max(counts.values())
    modes = tuple(sorted(v for v, c in counts.items() if c == top))

    variance = std = skewness = kurtosis = None
    if n >= 2:
        m2 = math.fsum((v - mean) ** 2 for v in vals)
        variance = m2 / (n - 1)
        std = math.sqrt(variance)
        if n >= 3 and variance > 0:
            m3 = math.fsum((v - mean) ** 3 for v in vals)
            g1 = (m3 / n) / (m2 / n) ** 1.5
            skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            if n >= 4:
                m4 = math.fsum((v - mean) ** 4 for v in vals)
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
    if fit_method not in ZIPF_METHODS:
        raise ValueError(f"unknown fit method {fit_method!r}; choose from {ZIPF_METHODS}")
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


def _contexts(corpus: Corpus) -> np.ndarray:
    """Each token's context as an index into corpus.vocabulary: the token
    before it, or len(vocabulary), standing for BOS, at a record's first token."""
    ids, offsets = corpus.token_ids, corpus.record_offsets
    contexts = np.empty(ids.size, dtype=np.int64)
    contexts[1:] = ids[:-1]
    contexts[offsets[:-1][np.diff(offsets) > 0]] = len(corpus.vocabulary)
    return contexts


def train_lm(corpus: Corpus, order: int = 1, smoothing: float = 1.0) -> NgramLM:
    """Count-based unigram or bigram model over the corpus token stream.

    smoothing = 0 gives the exact MLE (safe only for evaluating the training
    corpus itself); larger values shift mass toward uniform over vocab + OOV.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing}")
    if corpus.n_records == 0:
        raise ValueError("cannot train on an empty corpus")

    unigram = dict(corpus.token_counts.entries)
    bigram: dict = {}
    contexts: dict = {}
    if order == 2:
        vocab, ctx = corpus.vocabulary, _contexts(corpus)
        keys = (*vocab, BOS)
        starts = Counter(map(vocab.__getitem__, corpus.token_ids[ctx == len(vocab)].tolist()))
        bigram = dict(corpus.ngram_counts(2).entries)
        bigram.update(((BOS, tok), count) for tok, count in starts.items())
        # A context's count is the number of tokens that follow it.
        contexts = {keys[c]: n for c, n in enumerate(np.bincount(ctx, minlength=len(keys)).tolist())
                    if n}
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


def _aggregate(rows, empty_message: str, provenance: str = "self-contained",
               extra_flags: tuple = ()) -> PerplexityResult:
    """Corpus and per-record perplexity from rows {record id: (logprob, n_tokens)},
    summed in row order."""
    total_logprob = 0.0
    total_tokens = 0
    per_record = {}
    infinite = False
    for rid, (logprob, n) in rows.items():
        record_ppl = math.inf if math.isinf(logprob) else math.exp(-logprob / n)
        if math.isinf(record_ppl):
            infinite = True
        per_record[rid] = (record_ppl, n)
        total_logprob += logprob
        total_tokens += n
    if total_tokens == 0:
        raise UndefinedValueError(empty_message)
    value = math.inf if math.isinf(total_logprob) else math.exp(-total_logprob / total_tokens)
    return PerplexityResult(
        perplexity=value,
        n_tokens=total_tokens,
        per_record=per_record,
        flags=(("infinite",) if infinite else ()) + extra_flags,
        provenance=provenance,
    )


def perplexity(lm: NgramLM, corpus: Corpus) -> PerplexityResult:
    """exp of the mean negative log-probability per token.

    A zero-probability token (smoothing 0 on unseen data) makes the value
    infinite; that is reported as a flagged result, not an exception.
    """
    if lm.tokenizer_config is not None and lm.tokenizer_config != corpus.tokenizer_config:
        raise ValueError(
            f"tokenizer mismatch: model {lm.tokenizer_config} vs corpus {corpus.tokenizer_config}"
        )
    return _aggregate(_logprob_rows(lm, corpus), "perplexity undefined for a corpus with no tokens")


def _logprob_rows(lm: NgramLM, corpus: Corpus) -> dict:
    """{record id: (total log-probability, n_tokens)} for each non-empty record."""
    logprobs = _token_logprobs(lm, corpus)
    bounds = corpus.record_offsets.tolist()
    rows = {}
    for record, start, end in zip(corpus.records, bounds, bounds[1:]):
        if end > start:
            # accumulate adds left to right, as a per-token loop does; sum and
            # reduceat add pairwise, so their last bits differ.
            rows[record.id] = (float(np.add.accumulate(logprobs[start:end])[-1]), end - start)
    return rows


def _token_logprobs(lm: NgramLM, corpus: Corpus) -> np.ndarray:
    """ln lm.prob of every corpus token in its record context, in token
    order; -inf where the probability is zero.

    Each distinct (context, token) outcome is looked up in the model once,
    and math.log runs once per distinct probability, so every value is the
    one NgramLM.prob and math.log give for that token.
    """
    if lm.order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {lm.order}")
    vocab, ids = corpus.vocabulary, corpus.token_ids
    if lm.order == 1:
        outcome, probs = ids, _outcome_probs(lm, vocab, None)
    else:
        keys = (*vocab, BOS)
        outcome_keys, outcome = np.unique(_contexts(corpus) * len(keys) + ids, return_inverse=True)
        ctx_keys, tok_keys = np.divmod(outcome_keys, len(keys))
        probs = _outcome_probs(lm, map(keys.__getitem__, tok_keys.tolist()),
                               map(keys.__getitem__, ctx_keys.tolist()))
    distinct, which = np.unique(probs, return_inverse=True)
    logs = np.array([-math.inf if p <= 0.0 else math.log(p) for p in distinct.tolist()])
    return logs[which][outcome]


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
    partial = known_ids is not None and len(rows) < len(known_ids)
    return _aggregate(rows, "logprob file contains no records", provenance="external-model",
                      extra_flags=("partial-coverage",) if partial else ())


def _logprob_row(line: str) -> tuple[str, float, int]:
    """(id, logprob, n_tokens) from one logprob file line; ValueError saying what is wrong."""
    obj = decode_json_line(line)
    try:
        rid, logprob, n = str(obj["id"]), obj["logprob"], obj["n_tokens"]
    except (KeyError, TypeError):
        raise ValueError('a line must be an object with "id", "logprob" and "n_tokens"') from None
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
