"""Traced memory peaks of the text layers' chunked builds and record-block
routes, against the peaks of the whole-corpus routes they replaced, of the
embedding loader, against the per-value float() parse it replaced, and of
the kNN density search, against the n-sized similarity blocks it replaced."""

import tracemalloc

import numpy as np

from dmeter.association import build_cooccurrence
from dmeter.corpus import Corpus, Record
from dmeter.density import _BLOCK_ROWS, EXACT_SEARCH_CAP, knn_density
from dmeter.diversity import ngram_diversity
from dmeter.quality import _word_and_syllable_counts
from dmeter.tendency import _self_perplexity
from dmeter.vectors import EmbeddingMatrix, load_embeddings, save_embeddings

# tracemalloc peaks, in MiB, of the builds that held the whole corpus at once:
# the token store as one chunk, the order-2 (context, token) outcomes through
# np.unique, and the co-occurrence count as one block, targeted and untargeted
# (4,950 pairs, fewer than one slice of the pair dict).  Measured on
# zipf_corpus() with Python 3.11.7 and numpy 2.4.6; the chunked builds peaked
# at 1.65, 2.87, 2.61 and 4.42 MiB.
WHOLE_CORPUS_PEAKS_MIB = {"store": 7.382, "self_perplexity": 6.702, "cooccurrence": 7.138,
                          "untargeted_cooccurrence": 39.996}


# tracemalloc peaks, in MiB, of the routes that held per-token arrays over
# the whole corpus: ngram_diversity at n = 2, the Flesch word and syllable
# sums, and the targeted window-mode co-occurrence count (width 5).  Measured
# on zipf_corpus(16_000) with Python 3.11.7 and numpy 2.4.6; the routes that
# take a block of records at a time peaked at 2.98, 2.13 and 5.69 MiB.
WHOLE_CORPUS_ROUTE_PEAKS_MIB = {"ngram_diversity": 19.503, "flesch_sums": 7.310,
                                "window_cooccurrence": 13.605}


def zipf_corpus(n_records: int = 4000) -> Corpus:
    """n_records records of 0 to 59 tokens drawn from 100 Zipf-weighted types.
    The 4,000 records hold 119,745 tokens in 411,722 characters of text, so
    seven store chunks; 16,000 hold 474,721 tokens, eight record blocks."""
    rng = np.random.default_rng(30)
    words = np.array([f"w{i}" for i in range(100)])
    weights = 1.0 / np.arange(1, 101)
    lengths = rng.integers(0, 60, n_records)
    tokens = words[rng.choice(100, size=int(lengths.sum()), p=weights / weights.sum())].tolist()
    bounds = np.cumsum(lengths).tolist()
    texts = [" ".join(tokens[a:b]) + "." for a, b in zip([0] + bounds, bounds)]
    return Corpus([Record(str(i), t) for i, t in enumerate(texts)])


def traced_peak_mib(compute) -> float:
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_text_layers_peak_below_half_of_the_whole_corpus_builds():
    corpus = zipf_corpus()
    peaks = {
        "store": traced_peak_mib(lambda: corpus._store),
        "self_perplexity": traced_peak_mib(lambda: _self_perplexity(corpus, 2, 1.0)),
        "cooccurrence": traced_peak_mib(lambda: build_cooccurrence(corpus, ["w0", "w2", "w10"])),
        "untargeted_cooccurrence": traced_peak_mib(lambda: build_cooccurrence(corpus)),
    }
    assert corpus.total_tokens == 119_745
    for name, peak in peaks.items():
        assert peak < WHOLE_CORPUS_PEAKS_MIB[name] / 2, (name, peak)


def test_record_block_routes_peak_below_half_of_the_whole_corpus_routes():
    corpus = zipf_corpus(16_000)
    corpus._store
    peaks = {
        "ngram_diversity": traced_peak_mib(lambda: ngram_diversity(corpus, 2)),
        "flesch_sums": traced_peak_mib(lambda: list(_word_and_syllable_counts(corpus))),
        "window_cooccurrence": traced_peak_mib(
            lambda: build_cooccurrence(corpus, ["w0", "w2", "w10"], "window", 5)),
    }
    assert corpus.total_tokens == 474_721
    for name, peak in peaks.items():
        assert peak < WHOLE_CORPUS_ROUTE_PEAKS_MIB[name] / 2, (name, peak)


# tracemalloc peak, in MiB, of load_embeddings when it parsed each value with
# float(), on the file embedding_file() writes (4,000 rows of 64 values, 5.2
# MB of text), loaded once before.  Measured with Python 3.11.7 and numpy
# 2.4.6; the one numpy pass over every row's values peaked at 8.068.
FLOAT_ROUTE_LOAD_PEAK_MIB = 8.167


def embedding_file(path):
    rng = np.random.default_rng(32)
    rows = rng.standard_normal((4000, 64))
    save_embeddings(EmbeddingMatrix([f"r{i}" for i in range(4000)], rows), path)
    return rows


def test_embedding_load_peaks_no_higher_than_the_float_route(tmp_path):
    path = tmp_path / "emb.txt"
    rows = embedding_file(path)
    # The first load also makes what numpy and the reader allocate once.
    assert np.array_equal(load_embeddings(path).matrix, rows)
    peak = traced_peak_mib(lambda: load_embeddings(path))
    assert peak <= FLOAT_ROUTE_LOAD_PEAK_MIB, peak


# tracemalloc peak, in MiB, of knn_density(emb, 5) on 4,000 standard normal
# rows of 64 values when each similarity block held _CHUNK_CELLS // n = 1,000
# rows: 32 MB of float64.  Measured with Python 3.11.7 and numpy 2.4.6;
# blocks of _BLOCK_ROWS rows peaked at 3.945.
N_SIZED_BLOCK_KNN_PEAK_MIB = 32.581


def test_knn_density_peaks_below_a_quarter_of_the_n_sized_blocks():
    rows = np.random.default_rng(32).standard_normal((4000, 64))
    emb = EmbeddingMatrix([f"r{i}" for i in range(4000)], rows)
    peak = traced_peak_mib(lambda: knn_density(emb, 5))
    assert peak < N_SIZED_BLOCK_KNN_PEAK_MIB / 4, peak


def test_similarity_block_at_the_search_cap_is_no_larger_than_the_n_sized_one():
    # The n-sized blocks held _CHUNK_CELLS = 4,000,000 float64 at every n.
    assert _BLOCK_ROWS * EXACT_SEARCH_CAP * 8 <= 32_000_000
