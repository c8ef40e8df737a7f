"""Which dmeter functions the traced run wraps, and how spans become per-layer
metrics.

The layers are dmeter's modules.  Time metrics are sums of span self times,
so each second is charged to exactly one layer: time that ngram_diversity
spends counting n-grams shows up under corpus.ngrams_s, not diversity.ngram_s.
"""

from __future__ import annotations

from spans import Target


def _corpus_counts(counts, args, _result):
    corpus = args[0]
    _add(counts, "corpus.records", corpus.n_records)
    _add(counts, "corpus.tokens", corpus.total_tokens)
    _add(counts, "corpus.types", len(corpus.vocabulary))


def _cooc_counts(counts, _args, table):
    _add(counts, "association.contexts", table.n_contexts)
    _add(counts, "association.pairs", len(table.pair_counts))


def _report_counts(counts, _args, report):
    _add(counts, "report.entries", len(report.measurements))
    errors = sum(any(f.startswith("error:") for f in entry["flags"])
                 for entry in report.measurements.values())
    _add(counts, "report.error_entries", errors)


def _serialized_bytes(counts, _args, text):
    _add(counts, "report.bytes", len(text.encode("utf-8")))


def _add(counts, name, value):
    counts[name] = counts.get(name, 0) + value


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("corpus", "ingest", "corpus.ingest"),
    Target("corpus", "Corpus.__init__", "corpus.Corpus", on_result=_corpus_counts),
    Target("corpus", "ngrams", "corpus.ngrams"),
    Target("vectors", "load_embeddings", "vectors.load_embeddings"),
    Target("vectors", "align_to_corpus", "vectors.align_to_corpus"),
    Target("tendency", "summarize", "tendency.summarize"),
    Target("tendency", "zipf_fit", "tendency.zipf_fit"),
    Target("tendency", "train_lm", "tendency.train_lm"),
    Target("tendency", "perplexity", "tendency.perplexity"),
    Target("tendency", "timestamp_gaps", "tendency.timestamp_gaps"),
    Target("tendency", "token_recurrence_gaps", "tendency.token_recurrence_gaps"),
    Target("tendency", "burstiness", "tendency.burstiness"),
    Target("diversity", "shannon_entropy", "diversity.shannon_entropy"),
    Target("diversity", "gini_diversity", "diversity.gini_diversity"),
    Target("diversity", "ngram_diversity", "diversity.ngram_diversity"),
    Target("diversity", "subset_diversity", "diversity.subset_diversity"),
    Target("diversity", "kernel_from_embeddings", "diversity.kernel_from_embeddings"),
    Target("diversity", "vendi_score", "diversity.vendi_score"),
    Target("diversity", "embedding_dispersion", "diversity.embedding_dispersion"),
    Target("density", "knn_density", "density.knn_density"),
    Target("density", "data_density", "density.data_density"),
    Target("quality", "find_duplicates", "quality.find_duplicates"),
    Target("quality", "redundancy_entropy", "quality.redundancy_entropy"),
    Target("quality", "flesch_reading_ease", "quality.flesch_reading_ease"),
    Target("association", "build_cooccurrence", "association.build_cooccurrence",
           on_result=_cooc_counts),
    Target("association", "top_npmi", "association.top_npmi"),
    Target("distance", "word_movers_distance", "distance.word_movers_distance"),
    Target("distance", "emd_discrete", "distance.emd_discrete"),
    Target("distance", "levenshtein", "distance.levenshtein"),
    Target("distance", "kl_divergence", "distance.kl_divergence"),
    # Ground-cost calls inside word mover's distance: too many to span.
    Target("distance", "euclidean", "distance.cost_calls", counter=True),
    Target("distance", "cosine_distance", "distance.cost_calls", counter=True),
    Target("report", "assemble_report", "report.assemble_report", on_result=_report_counts),
    Target("report", "serialize_report", "report.serialize_report", on_result=_serialized_bytes),
    Target("report", "serialize_delta", "report.serialize_delta"),
    Target("report", "parse_report", "report.parse_report"),
    Target("report", "compare", "report.compare"),
    Target("report", "format_delta_table", "report.format_delta_table"),
)

# metric -> span names whose self times it sums
SELF_TIME = {
    "corpus.ingest_s": ("corpus.ingest",),
    "corpus.build_s": ("corpus.Corpus",),
    "corpus.ngrams_s": ("corpus.ngrams",),
    "tendency.summarize_s": ("tendency.summarize",),
    "tendency.zipf_s": ("tendency.zipf_fit",),
    "tendency.train_lm_s": ("tendency.train_lm",),
    "tendency.perplexity_s": ("tendency.perplexity",),
    "tendency.gaps_s": ("tendency.timestamp_gaps", "tendency.token_recurrence_gaps",
                        "tendency.burstiness"),
    "diversity.counts_s": ("diversity.shannon_entropy", "diversity.gini_diversity"),
    "diversity.ngram_s": ("diversity.ngram_diversity",),
    "diversity.subset_s": ("diversity.subset_diversity",),
    "diversity.kernel_s": ("diversity.kernel_from_embeddings",),
    "diversity.vendi_s": ("diversity.vendi_score",),
    "diversity.dispersion_s": ("diversity.embedding_dispersion",),
    "vectors.load_s": ("vectors.load_embeddings",),
    "vectors.align_s": ("vectors.align_to_corpus",),
    "density.knn_s": ("density.knn_density",),
    "density.data_density_s": ("density.data_density",),
    "quality.dedup_s": ("quality.find_duplicates", "quality.redundancy_entropy"),
    "quality.flesch_s": ("quality.flesch_reading_ease",),
    "association.cooc_s": ("association.build_cooccurrence",),
    "association.top_npmi_s": ("association.top_npmi",),
    "distance.wmd_s": ("distance.word_movers_distance",),
    "distance.emd_s": ("distance.emd_discrete",),
    "distance.levenshtein_s": ("distance.levenshtein",),
    "distance.kl_s": ("distance.kl_divergence",),
    "report.assemble_s": ("report.assemble_report",),
    "report.serialize_s": ("report.serialize_report", "report.serialize_delta"),
    "report.parse_s": ("report.parse_report",),
    "report.compare_s": ("report.compare", "report.format_delta_table"),
    "cli.self_s": ("cli.main",),
}

COUNTS = ("corpus.records", "corpus.tokens", "corpus.types", "association.contexts",
          "association.pairs", "distance.cost_calls", "report.entries",
          "report.error_entries", "report.bytes")

# metric -> span whose peak allocation (tracemalloc, untimed pass) it reports
PEAKS = {
    "corpus.build_peak_mb": "corpus.Corpus",
    "diversity.kernel_peak_mb": "diversity.kernel_from_embeddings",
    "vectors.load_peak_mb": "vectors.load_embeddings",
    "density.knn_peak_mb": "density.knn_density",
    "association.cooc_peak_mb": "association.build_cooccurrence",
}

# metric -> CLI subcommand whose wall time (traced) it reports
COMMANDS = {"cli.measure_s": "measure", "cli.assoc_s": "assoc", "cli.dedup_s": "dedup"}

WMD_SPAN = "distance.word_movers_distance"
