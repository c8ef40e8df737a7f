"""Duplicate detection, redundancy entropy, and readability."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.corpus import Corpus, Record
from dmeter.errors import UndefinedValueError
from dmeter.quality import (
    NORMALIZATIONS,
    RedundancyReport,
    count_syllables,
    find_duplicates,
    flesch_reading_ease,
    flesch_score,
    redundancy_entropy,
)


def corpus_of(texts):
    return Corpus([Record(id=str(i), text=t) for i, t in enumerate(texts)])


def pairwise_cluster_sizes(texts, normalize):
    """O(n^2) oracle: group by direct text comparison, no hashing."""
    normed = [normalize(t) for t in texts]
    used = [False] * len(texts)
    sizes = []
    for i in range(len(texts)):
        if used[i]:
            continue
        size = 1
        used[i] = True
        for j in range(i + 1, len(texts)):
            if not used[j] and normed[j] == normed[i]:
                used[j] = True
                size += 1
        sizes.append(size)
    return sorted(sizes, reverse=True)


def sha_grouped_duplicates(corpus, normalization, top_cap):
    """The report as built by hashing every record's normalized text and
    grouping the records by that fingerprint."""
    groups = {}
    for record in corpus.records:
        text = record.text
        if normalization == "fold-and-collapse":
            text = " ".join(text.split()).casefold()
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        groups.setdefault(key, []).append(record)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    dup = [(fp, len(members), members[0].text) for fp, members in ordered if len(members) >= 2]
    return RedundancyReport(
        n_records=corpus.n_records,
        n_distinct=len(groups),
        duplicate_clusters=len(dup),
        excess_duplicates=corpus.n_records - len(groups),
        cluster_sizes=tuple(len(members) for _, members in ordered),
        top_clusters=tuple(dup[:top_cap]),
        normalization=normalization,
    )


# Few characters, so texts repeat exactly, up to case, or up to whitespace.
dup_texts = st.text(alphabet=st.sampled_from(list("aAsS \t\nßİ")), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(dup_texts, min_size=1, max_size=12), st.sampled_from(NORMALIZATIONS),
       st.integers(0, 4))
def test_find_duplicates_matches_hashing_every_record(texts, normalization, top_cap):
    corpus = corpus_of(texts)
    assert (find_duplicates(corpus, normalization, top_cap)
            == sha_grouped_duplicates(corpus, normalization, top_cap))


class TestFindDuplicates:
    def test_exact_duplicates(self):
        rep = find_duplicates(corpus_of(["a", "b", "a", "c", "a"]))
        assert rep.n_records == 5
        assert rep.n_distinct == 3
        assert rep.duplicate_clusters == 1
        assert rep.excess_duplicates == 2
        assert rep.cluster_sizes == (3, 1, 1)
        assert rep.top_clusters[0][1] == 3
        assert rep.top_clusters[0][2] == "a"

    def test_all_unique(self):
        rep = find_duplicates(corpus_of(["a", "b", "c"]))
        assert rep.duplicate_clusters == 0
        assert rep.excess_duplicates == 0
        assert rep.top_clusters == ()
        assert rep.cluster_sizes == (1, 1, 1)

    def test_exact_mode_is_case_and_space_sensitive(self):
        rep = find_duplicates(corpus_of(["Hello  world", "hello world"]))
        assert rep.n_distinct == 2

    def test_fold_and_collapse_mode(self):
        texts = ["Hello  world", "hello world", "HELLO\tWORLD", "other"]
        rep = find_duplicates(corpus_of(texts), normalization="fold-and-collapse")
        assert rep.n_distinct == 2
        assert rep.cluster_sizes == (3, 1)
        assert rep.normalization == "fold-and-collapse"

    def test_normalized_finds_superset_of_exact(self):
        rng = np.random.default_rng(42)
        base = ["alpha beta", "Alpha  Beta", "gamma", "alpha beta", "GAMMA", "delta"]
        texts = [base[i] for i in rng.integers(0, len(base), size=40)]
        c = corpus_of(texts)
        exact = find_duplicates(c)
        folded = find_duplicates(c, normalization="fold-and-collapse")
        assert folded.n_distinct <= exact.n_distinct
        assert folded.excess_duplicates >= exact.excess_duplicates

    def test_matches_pairwise_oracle_on_planted_duplicates(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            pool = [f"text number {i}" for i in range(int(rng.integers(2, 10)))]
            texts = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(2, 60)))]
            rep = find_duplicates(corpus_of(texts))
            assert list(rep.cluster_sizes) == pairwise_cluster_sizes(texts, lambda t: t)
            folded = find_duplicates(corpus_of(texts), normalization="fold-and-collapse")
            oracle = pairwise_cluster_sizes(texts, lambda t: " ".join(t.split()).casefold())
            assert list(folded.cluster_sizes) == oracle

    def test_top_cap_limits_reported_clusters_not_sizes(self):
        texts = ["x"] * 3 + ["y"] * 2 + ["z"] * 2 + ["w"]
        rep = find_duplicates(corpus_of(texts), top_cap=1)
        assert len(rep.top_clusters) == 1
        assert rep.top_clusters[0][1] == 3
        assert rep.cluster_sizes == (3, 2, 2, 1)

    def test_negative_top_cap_rejected(self):
        texts = ["x", "x", "y", "y", "z"]
        with pytest.raises(ValueError, match="top_cap must be >= 0, got -1"):
            find_duplicates(corpus_of(texts), top_cap=-1)
        assert find_duplicates(corpus_of(texts), top_cap=0).top_clusters == ()

    def test_clusters_ordered_by_size_then_fingerprint(self):
        rep = find_duplicates(corpus_of(["m", "m", "n", "n", "o"]))
        assert [c[1] for c in rep.top_clusters] == [2, 2]
        assert rep.top_clusters[0][0] < rep.top_clusters[1][0]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown normalization"):
            find_duplicates(corpus_of(["a"]), normalization="soundex")
        with pytest.raises(ValueError, match="empty"):
            find_duplicates(corpus_of([]))


class TestRedundancyEntropy:
    def test_all_unique_is_one(self):
        rep = find_duplicates(corpus_of(["a", "b", "c", "d"]))
        assert redundancy_entropy(rep) == pytest.approx(1.0, abs=1e-12)

    def test_all_identical_is_zero(self):
        rep = find_duplicates(corpus_of(["a"] * 6))
        assert redundancy_entropy(rep) == pytest.approx(0.0, abs=1e-12)

    def test_single_record_convention(self):
        rep = find_duplicates(corpus_of(["only"]))
        assert redundancy_entropy(rep) == 1.0

    def test_known_split(self):
        # clusters of 2 and 2: H = ln 2, normalized by ln 4
        rep = find_duplicates(corpus_of(["a", "a", "b", "b"]))
        assert redundancy_entropy(rep) == pytest.approx(math.log(2) / math.log(4), abs=1e-12)

    def test_monotone_in_concentration(self):
        spread = redundancy_entropy(find_duplicates(corpus_of(["a", "a", "b", "b", "c", "c"])))
        lumped = redundancy_entropy(find_duplicates(corpus_of(["a", "a", "a", "a", "a", "b"])))
        assert lumped < spread

    def test_unit_interval_on_random_corpora(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pool = [f"t{i}" for i in range(int(rng.integers(1, 8)))]
            texts = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(2, 40)))]
            h = redundancy_entropy(find_duplicates(corpus_of(texts)))
            assert 0.0 - 1e-12 <= h <= 1.0 + 1e-12


def direct_redundancy_entropy(report):
    """The formula redundancy_entropy had before it took diversity.shannon_entropy."""
    n = report.n_records
    if n == 1:
        return 1.0
    entropy = -math.fsum((s / n) * math.log(s / n) for s in report.cluster_sizes)
    return entropy / math.log(n)


@given(st.lists(st.integers(1, 10**12), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_redundancy_entropy_keeps_the_direct_formulas_bits(sizes):
    sizes = sorted(sizes, reverse=True)
    rep = RedundancyReport(
        n_records=sum(sizes), n_distinct=len(sizes),
        duplicate_clusters=sum(s >= 2 for s in sizes), excess_duplicates=sum(sizes) - len(sizes),
        cluster_sizes=tuple(sizes), top_clusters=(), normalization="exact",
    )
    assert redundancy_entropy(rep) == direct_redundancy_entropy(rep)


class TestSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("the", 1),        # trailing e dropped: th-e -> 1 group - 1, floored
            ("sat", 1),
            ("table", 1),      # a + le-final-e: 2 groups - 1
            ("syllable", 2),
            ("beautiful", 3),  # eau-i-u
            ("rhythm", 1),     # y group
            ("strength", 1),
            ("xyz", 1),        # y counts as a vowel
            ("mmm", 1),        # floor at one
            ("idea", 2),       # i + ea
            ("e", 1),          # floor survives the trailing-e rule
        ],
    )
    def test_heuristic_examples(self, word, expected):
        assert count_syllables(word) == expected

    def test_case_insensitive(self):
        assert count_syllables("BEAUTIFUL") == count_syllables("beautiful")

    def test_always_at_least_one(self):
        rng = np.random.default_rng(42)
        letters = list("abcdefghijklmnopqrstuvwxyz")
        for _ in range(200):
            word = "".join(rng.choice(letters, size=int(rng.integers(1, 12))))
            assert count_syllables(word) >= 1


class TestFleschScore:
    def test_anchor_sentence(self):
        # 3 words, 1 sentence, 3 syllables
        assert flesch_score("The cat sat.") == pytest.approx(119.19, abs=1e-9)

    def test_matches_formula_directly(self):
        text = "Some words go here. And more follow now!"
        words = 8
        sentences = 2
        syllables = sum(count_syllables(w) for w in ["Some", "words", "go", "here", "And", "more", "follow", "now"])
        want = 206.835 - 1.015 * (words / sentences) - 84.6 * (syllables / words)
        assert flesch_score(text) == pytest.approx(want, abs=1e-12)

    def test_unterminated_trailing_segment_counts(self):
        with_period = flesch_score("The cat sat. The dog ran.")
        without = flesch_score("The cat sat. The dog ran")
        assert with_period == pytest.approx(without, abs=1e-12)

    def test_punctuation_runs_are_one_boundary(self):
        assert flesch_score("Stop!!! Go now...") == flesch_score("Stop! Go now.")

    def test_longer_words_score_lower(self):
        simple = flesch_score("The cat sat on the mat.")
        dense = flesch_score("Considerable deliberation accompanied intricate negotiations.")
        assert dense < simple

    def test_no_words_undefined(self):
        with pytest.raises(UndefinedValueError, match="no words"):
            flesch_score("?!? ...")

    def test_decimal_point_does_not_split_sentences(self):
        # the dot in 3.14159 is not followed by whitespace or end of text,
        # so this stays a single sentence of 5 word tokens (3 and 14159 split)
        score = flesch_score("Pi is 3.14159 roughly.")
        want = 206.835 - 1.015 * (5 / 1) - 84.6 * (6 / 5)
        assert score == pytest.approx(want, abs=1e-9)


class TestFleschReport:
    def test_per_record_scores_and_summary(self):
        c = corpus_of(["The cat sat.", "The dog ran."])
        rep = flesch_reading_ease(c)
        assert set(rep.per_record) == {"0", "1"}
        assert rep.stats.count == 2
        assert rep.stats.mean == pytest.approx(119.19, abs=1e-9)
        assert rep.n_skipped == 0

    def test_unscoreable_records_skipped_not_imputed(self):
        c = corpus_of(["The cat sat.", "???", ""])
        rep = flesch_reading_ease(c)
        assert rep.skipped_ids == ("1", "2")
        assert rep.stats.count == 1

    def test_no_scoreable_records(self):
        with pytest.raises(UndefinedValueError, match="no scoreable"):
            flesch_reading_ease(corpus_of(["...", "!!"]))

    def test_summary_matches_per_record_values(self):
        rng = np.random.default_rng(42)
        texts = []
        for _ in range(30):
            n_sent = int(rng.integers(1, 4))
            texts.append(
                " ".join(
                    " ".join(rng.choice(["cat", "table", "beautiful", "go"], size=int(rng.integers(2, 9)))) + "."
                    for _ in range(n_sent)
                )
            )
        rep = flesch_reading_ease(corpus_of(texts))
        vals = list(rep.per_record.values())
        assert rep.stats.mean == pytest.approx(sum(vals) / len(vals), rel=1e-12)
        assert rep.stats.min == min(vals)
        assert rep.stats.max == max(vals)
