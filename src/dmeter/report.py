"""Measurement reports and batch-over-batch comparison.

A report is a versioned, deterministically serialized JSON artifact: every
measurement value travels with its generating parameters, unit, flags, and
provenance.  Comparison only computes deltas between entries whose parameters
match exactly; everything else is marked incomparable with a reason.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import density, diversity, quality, tendency
from .corpus import Corpus, FrequencyTable, read_lines
from .errors import MeasurementError, UndefinedValueError, check_int
from .vectors import EmbeddingMatrix, align_to_corpus

SCHEMA_VERSION = "1.0"

DEFAULT_CONFIG = {
    "zipf_method": "discrete-mle",
    "lm_order": 1,
    "lm_smoothing": 1.0,
    "burstiness_token": None,
    "diversity_attribute": None,
    "ngram_denominator": "total-ngrams",
    "knn_k": 5,
    "knn_similarity": "cosine",
    "volume_mode": "bounding-box",
    "perplexity_logprobs": None,
    "vendi_cap": 4096,
}

# A flag with one of these prefixes means the entry could not be computed.
BLOCKING_FLAG_PREFIXES = ("error:", "skipped:")
_BLOCKING_FLAGS = ("infinite", "negative-infinite", "undefined")


def is_blocking(flag: str) -> bool:
    """True when the flag makes an entry's value unusable for deltas.

    Informational flags (low-confidence, alpha-boundary, undefined:<field>,
    ...) do not block comparison.
    """
    return flag in _BLOCKING_FLAGS or flag.startswith(BLOCKING_FLAG_PREFIXES)


@dataclass(frozen=True)
class MeasurementReport:
    schema_version: str
    corpus_fingerprint: str
    tokenizer_config: dict
    created_at: str
    measurements: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _default_created_at() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.now(tz=timezone.utc)
    else:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise ValueError(f"SOURCE_DATE_EPOCH must be an integer number of seconds that "
                             f"a date can hold, got {epoch!r}") from None
    # strftime's %Y is not padded below year 1000 on every platform.
    return f"{moment.year:04d}" + moment.strftime("-%m-%dT%H:%M:%SZ")


def _sanitize(value, flags: list, suffix: str = ""):
    """Replace non-finite floats and None with null + a flag; recurse into dicts and lists."""
    if value is None:
        flags.append(f"undefined{suffix}")
        return None
    if isinstance(value, float):
        if math.isinf(value):
            flags.append(("infinite" if value > 0 else "negative-infinite") + suffix)
            return None
        if math.isnan(value):
            flags.append(f"undefined{suffix}")
            return None
        return value
    if isinstance(value, dict):
        return {k: _sanitize(v, flags, f":{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, flags, suffix) for v in value]
    return value


# A failed measurement's flag comes from the first class its exception belongs to.
_ERROR_FLAGS = ((UndefinedValueError, "undefined"), (MeasurementError, "error:measurement"),
                ((ValueError, OSError), "error:argument"), (Exception, "error:internal"))


class _ReportBuilder:
    """The one way an entry enters a report; it holds the embeddings aligned
    to the corpus, or None, and the source name add_embedded gives them."""

    def __init__(self, embeddings: EmbeddingMatrix | None = None,
                 embedding_source: str | None = None):
        self.measurements: dict = {}
        self.embeddings = embeddings
        self.embedding_source = embedding_source

    def add(self, name, unit, params, compute, provenance="self-contained", skip=None,
            fields=(), flags=()):
        """Run one measurement with failure isolation: any error becomes a
        flagged entry instead of aborting the report.  With a skip reason,
        compute is not called and the entry is flagged skipped:<reason>.

        The value compute returns is the entry's, and flags are added to it.
        With fields, compute returns a library result instead: the entry's
        value is a dict of the named fields (one name gives that field's
        value), and the result's flags are the entry's too.
        """
        flags, value, note = list(flags), None, None
        if skip:
            flags = [f"skipped:{skip}"]
        else:
            try:
                value = compute()
                if fields:
                    flags.extend(getattr(value, "flags", ()))
                    value = ({n: getattr(value, n) for n in fields} if len(fields) > 1
                             else getattr(value, fields[0]))
            except Exception as exc:  # isolation rule: never abort the report
                note = str(exc)
                flags = [next(flag for kind, flag in _ERROR_FLAGS if isinstance(exc, kind))]
            else:
                value = _sanitize(value, flags)
        entry = {
            "value": value,
            "unit": unit,
            "params": params,
            "flags": sorted(set(flags)),
            "provenance": provenance,
        }
        if note:
            entry["note"] = note
        self.measurements[name] = entry

    def add_embedded(self, name, unit, params, compute, fields=()):
        """One entry computed from the embeddings: they are named in its params,
        its provenance is external-model, and without them it is skipped."""
        self.add(name, unit, {**params, "embedding_source": self.embedding_source}, compute,
                 provenance="external-model",
                 skip="no-embeddings" if self.embeddings is None else None, fields=fields)


def _token_counts(corpus: Corpus) -> FrequencyTable:
    """The corpus's type counts, for the entries that summarize them: a corpus
    whose records hold no tokens leaves them undefined, as it does the n-gram
    and perplexity entries."""
    if not corpus.total_tokens:
        raise UndefinedValueError("corpus has no tokens")
    return corpus.token_counts


def _with_records(corpus: Corpus) -> Corpus:
    """The corpus, for the entries that summarize its records: a corpus of
    no records leaves them undefined, as one of no tokens does the token
    entries."""
    if not corpus.n_records:
        raise UndefinedValueError("corpus has no records")
    return corpus


def _burstiness_token_skip(corpus: Corpus, token) -> str | None:
    """The skip reason of burstiness_token_<token>: burstiness needs two
    gaps, so three occurrences of the token."""
    if isinstance(token, str) and corpus.token_counts.entries.get(token, 0) < 3:
        return "needs-at-least-3-occurrences-of-the-token"
    return None


def _add_tendency(b: _ReportBuilder, corpus: Corpus, cfg: dict, tok: dict) -> None:
    b.add(
        "record_length_tokens",
        "tokens/record",
        {"tokenizer": tok},
        lambda: asdict(tendency.summarize(np.diff(_with_records(corpus).record_offsets).tolist())),
    )
    b.add(
        "token_count_stats",
        "count/type",
        {"tokenizer": tok},
        lambda: asdict(tendency.summarize(list(_token_counts(corpus).entries.values()))),
    )

    b.add("zipf", "exponent", {"fit_method": cfg["zipf_method"], "tokenizer": tok},
          lambda: tendency.zipf_fit(corpus.token_counts, cfg["zipf_method"]),
          fields=("alpha", "ks_distance", "n_ranks"))

    def _perplexity_self():
        order, smoothing = cfg["lm_order"], cfg["lm_smoothing"]
        tendency._check_lm_options(order, smoothing)  # an argument error on any corpus
        return tendency._self_perplexity(_with_records(corpus), order, smoothing)

    b.add("perplexity_self", "perplexity",
          {"order": cfg["lm_order"], "smoothing": cfg["lm_smoothing"], "tokenizer": tok},
          _perplexity_self, fields=("perplexity",))

    if cfg["perplexity_logprobs"]:
        path = cfg["perplexity_logprobs"]
        b.add(
            "perplexity_external",
            "perplexity",
            {"logprob_source": str(path)},
            lambda: tendency.perplexity_from_logprobs(path, corpus),
            provenance="external-model",
            fields=("perplexity",),
        )

    n_stamped = sum(r.timestamp is not None for r in corpus.records)
    b.add(
        "burstiness_timestamp",
        "dimensionless",
        {"gap_source": "timestamps"},
        lambda: tendency.burstiness(tendency.timestamp_gaps(corpus)),
        skip=None if n_stamped >= 3 else "needs-at-least-3-timestamped-records",
    )

    token = cfg["burstiness_token"]
    if token:
        b.add(
            f"burstiness_token_{token}",
            "dimensionless",
            {"gap_source": "token-recurrence", "token": token, "tokenizer": tok},
            lambda: tendency.burstiness(tendency.token_recurrence_gaps(corpus, token)),
            skip=_burstiness_token_skip(corpus, token),
        )


def _add_diversity(b: _ReportBuilder, corpus: Corpus, cfg: dict, tok: dict) -> None:
    b.add("token_entropy", "nats", {"tokenizer": tok},
          lambda: diversity.shannon_entropy(_token_counts(corpus)))
    b.add("token_gini", "probability", {"tokenizer": tok},
          lambda: diversity.gini_diversity(_token_counts(corpus)))
    for n in (1, 2):
        b.add(
            f"ngram_diversity_{n}",
            "ratio",
            {"n": n, "denominator": cfg["ngram_denominator"], "tokenizer": tok},
            lambda n=n: diversity.ngram_diversity(corpus, n, cfg["ngram_denominator"]),
        )

    attribute = cfg["diversity_attribute"]
    if attribute:
        b.add(f"subset_diversity_{attribute}", "nats", {"attribute": attribute},
              lambda: diversity.subset_diversity(corpus.records, attribute),
              fields=("proportions", "entropy", "n_labeled", "n_unlabeled"))

    def _vendi():
        emb = b.embeddings
        if emb.n > cfg["vendi_cap"]:
            raise ValueError(
                f"{emb.n} rows exceed the eigen-decomposition cap of {cfg['vendi_cap']}; "
                "sample the embeddings first"
            )
        return diversity.vendi_score(emb)

    b.add_embedded("vendi_score", "effective-items", {"similarity": "cosine"}, _vendi)
    b.add_embedded("embedding_dispersion", "distance", {},
                   lambda: diversity.embedding_dispersion(b.embeddings))


def _add_density(b: _ReportBuilder, corpus: Corpus, cfg: dict, tok: dict) -> None:
    def _knn():
        emb = b.embeddings
        check_int("k", cfg["knn_k"])  # min could pick emb.n - 1 over a bool or a float
        k = min(cfg["knn_k"], emb.n - 1)
        rep = density.knn_density(emb, k, cfg["knn_similarity"])
        return {"global": rep.global_density,
                "per_point_min": min(rep.per_point_density),
                "per_point_max": max(rep.per_point_density),
                "k_used": k}

    b.add_embedded("knn_density", "similarity",
                   {"k": cfg["knn_k"], "similarity": cfg["knn_similarity"]}, _knn)
    b.add_embedded("data_density", "points/volume", {"volume_mode": cfg["volume_mode"]},
                   lambda: density.data_density(b.embeddings, cfg["volume_mode"]),
                   fields=("density", "log_density", "degenerate_dims"))


def _add_quality(b: _ReportBuilder, corpus: Corpus, cfg: dict, tok: dict) -> None:
    reports = {}
    for norm in quality.NORMALIZATIONS:
        name = "duplicates_exact" if norm == "exact" else "duplicates_normalized"
        b.add(name, "records", {"normalization": norm},
              lambda norm=norm: reports.setdefault(
                  norm, quality.find_duplicates(_with_records(corpus), norm)),
              fields=("n_records", "n_distinct", "duplicate_clusters", "excess_duplicates"))

    b.add("redundancy_entropy", "ratio", {"normalization": "exact"},
          lambda: quality.redundancy_entropy(
              reports.get("exact") or quality.find_duplicates(_with_records(corpus), "exact")),
          flags=("singleton-convention",) if corpus.n_records == 1 else ())

    def _flesch():
        rep = quality.flesch_reading_ease(corpus)
        out = asdict(rep.stats)
        out["n_scored"] = len(rep.per_record)
        out["n_skipped"] = rep.n_skipped
        return out

    b.add(
        "flesch_reading_ease",
        "score",
        {"sentence_splitter": "punctuation-runs", "syllables": "vowel-groups"},
        _flesch,
    )


_FAMILIES = {"tendency": _add_tendency, "diversity": _add_diversity,
             "density": _add_density, "quality": _add_quality}

METRIC_FAMILIES = tuple(_FAMILIES)


def select_metrics(metric_selection) -> list[str]:
    """The selected metric families, each once, in order; none or an unknown one is an error."""
    selection = list(dict.fromkeys(metric_selection))
    if not selection:
        raise ValueError("metric selection is empty")
    unknown = [m for m in selection if m not in METRIC_FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown metric families {unknown}; valid names: {', '.join(METRIC_FAMILIES)}"
        )
    return selection


def assemble_report(
    corpus: Corpus,
    metric_selection,
    config: dict | None = None,
    embeddings: EmbeddingMatrix | None = None,
    embedding_source: str | None = None,
    created_at: str | None = None,
) -> MeasurementReport:
    """Compute the selected metric families over the corpus.

    Families: tendency, diversity, density, quality.  Individual metric
    failures become flagged entries; they never abort the report.
    Embedding-derived entries are tagged provenance "external-model" and
    skipped (with reason) when no embeddings are supplied.
    """
    selection = select_metrics(metric_selection)
    cfg = dict(DEFAULT_CONFIG)
    if config:
        bad = [k for k in config if k not in DEFAULT_CONFIG]
        if bad:
            raise ValueError(f"unknown config keys {bad}; valid keys: {sorted(DEFAULT_CONFIG)}")
        cfg.update(config)
    if created_at is None:  # before any entry is computed, so a bad SOURCE_DATE_EPOCH costs none
        created_at = _default_created_at()

    builder = _ReportBuilder(embedding_source=embedding_source)
    if embeddings is not None:
        builder.embeddings = align_to_corpus(embeddings, corpus)
        if embedding_source is None:
            builder.embedding_source = "unnamed"

    tok = corpus.tokenizer_config.as_dict()
    for family, add_family in _FAMILIES.items():
        if family in selection:
            add_family(builder, corpus, cfg, tok)

    return MeasurementReport(
        schema_version=SCHEMA_VERSION,
        corpus_fingerprint=corpus.fingerprint,
        tokenizer_config=tok,
        created_at=created_at,
        measurements=dict(sorted(builder.measurements.items())),
    )


# --- serialization --------------------------------------------------------------


def _round_floats(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} must be flag-encoded before serialization")
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def canonical_json(payload) -> str:
    """Canonical JSON: sorted keys, 12-significant-digit floats, newline-terminated."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


def serialize_report(report: MeasurementReport) -> str:
    return canonical_json(report.to_dict())


def parse_report(source) -> MeasurementReport:
    """Read a serialized report back; inverse of serialize_report.

    The report must be a JSON object with every required key, its
    measurements an object of objects, and an entry's flags, when present, a
    list of strings; anything else raises ValueError.  source is a path or a
    text stream, read by read_lines; a string is always a path."""
    obj = json.loads("".join(line for _, line in read_lines(source)))
    if not isinstance(obj, dict):
        raise ValueError(f"report must be a JSON object, got {type(obj).__name__}")
    keys = [field.name for field in fields(MeasurementReport)]
    for key in keys:
        if key not in obj:
            raise ValueError(f"report is missing required key {key!r}")
    if not isinstance(obj["measurements"], dict):
        raise ValueError("report 'measurements' must be an object")
    for name, entry in obj["measurements"].items():
        if not isinstance(entry, dict):
            raise ValueError(f"measurement {name!r} must be an object, got {type(entry).__name__}")
        flags = entry.get("flags", [])
        if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
            raise ValueError(f"measurement {name!r} flags must be a list of strings")
    return MeasurementReport(**{key: obj[key] for key in keys})


# --- comparison ------------------------------------------------------------------


@dataclass(frozen=True)
class BatchDelta:
    """Per-measurement differences between a baseline and a candidate report."""

    baseline_ref: str
    candidate_ref: str
    schema_version: str
    entries: dict
    n_comparable: int
    n_incomparable: int

    def to_dict(self) -> dict:
        return asdict(self)


def _as_float(v: int | float) -> float:
    """v as a float; an int past the float range is an infinity of its sign,
    so its entry is incomparable as non-finite-delta."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _numeric_fields(value) -> dict:
    """name -> float for delta computation; scalar values map to {'value': x}."""
    fields = value if isinstance(value, dict) else {"value": value}
    return {k: _as_float(v) for k, v in fields.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def _entry_delta(b_entry: dict | None, c_entry: dict | None) -> tuple[str | None, dict]:
    """(why the entry is incomparable, or None; its per-field deltas)."""
    if b_entry is None or c_entry is None:
        return ("missing-in-baseline" if b_entry is None else "missing-in-candidate"), {}
    if b_entry.get("params") != c_entry.get("params"):
        return "params-differ", {}
    if any(is_blocking(f) for e in (b_entry, c_entry) for f in e.get("flags", ())):
        return "value-flagged", {}
    b_fields = _numeric_fields(b_entry.get("value"))
    c_fields = _numeric_fields(c_entry.get("value"))
    deltas = {}
    for fname in sorted(set(b_fields) & set(c_fields)):
        absolute = c_fields[fname] - b_fields[fname]
        relative = absolute / abs(b_fields[fname]) if b_fields[fname] != 0 else math.inf
        deltas[fname] = {"absolute": absolute,
                         "relative": relative if math.isfinite(relative) else None}
    if not deltas:
        return "no-numeric-values", {}
    if not all(math.isfinite(d["absolute"]) for d in deltas.values()):
        return "non-finite-delta", {}
    return None, deltas


def compare(baseline: MeasurementReport, candidate: MeasurementReport) -> BatchDelta:
    """Deltas for every measurement present in both reports with equal params.

    Mismatched params (including tokenizer config), flagged/unusable values,
    or one-sided presence mark the entry incomparable with a reason.
    """
    base_major = str(baseline.schema_version).split(".")[0]
    cand_major = str(candidate.schema_version).split(".")[0]
    if base_major != cand_major:
        raise ValueError(
            f"schema version mismatch: baseline {baseline.schema_version!r} "
            f"vs candidate {candidate.schema_version!r}"
        )

    entries: dict = {}
    for name in sorted(set(baseline.measurements) | set(candidate.measurements)):
        reason, deltas = _entry_delta(baseline.measurements.get(name),
                                      candidate.measurements.get(name))
        entries[name] = {"comparable": reason is None, "reason": reason, "deltas": deltas}
    n_comparable = sum(e["comparable"] for e in entries.values())

    return BatchDelta(
        baseline_ref=baseline.corpus_fingerprint,
        candidate_ref=candidate.corpus_fingerprint,
        schema_version=baseline.schema_version,
        entries=entries,
        n_comparable=n_comparable,
        n_incomparable=len(entries) - n_comparable,
    )


def serialize_delta(delta: BatchDelta) -> str:
    return canonical_json(delta.to_dict())


def format_delta_table(delta: BatchDelta) -> str:
    """Aligned text table of per-measurement deltas."""
    rows = [("measurement", "field", "absolute", "relative", "status")]
    for name, entry in delta.entries.items():
        if not entry["comparable"]:
            rows.append((name, "-", "-", "-", f"incomparable ({entry['reason']})"))
            continue
        for fname, d in entry["deltas"].items():
            rel = f"{d['relative']:+.6g}" if d["relative"] is not None else "-"
            rows.append((name, fname, f"{d['absolute']:+.6g}", rel, "ok"))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.append(f"comparable: {delta.n_comparable}  incomparable: {delta.n_incomparable}")
    return "\n".join(lines) + "\n"
