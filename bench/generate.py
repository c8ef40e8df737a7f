"""Seeded input generator for the benchmark workloads, with known answers.

Stdlib only, so the same seed gives the same bytes on any machine.  Every
workload writes plain input files into a directory and returns a manifest of
what it injected (sizes, duplicate counts, exact mean record lengths, dropped
tokens), which the benchmark checks dmeter's outputs against.

Words are pronounceable multi-syllable strings of lowercase letters, so the
unicode-word tokenizer sees exactly the words written, and syllable counts,
record lengths and sentence counts all vary across records.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "ch", "cl", "dr", "gr", "pl", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "", "", "", "", "l", "m", "n", "nd", "r", "s", "st", "t")
_SYLLABLE_WEIGHTS = (5, 5, 2, 1)  # for 1, 2, 3 and 4 syllables
_SOURCES = ("web", "news", "forum", "books")
_SOURCE_WEIGHTS = (5, 3, 2, 1)
_ENDINGS = (".", ".", ".", "!", "?")

TEXT_SIZES = {"records": 20_000, "types": 5_000, "exact_dups": 400, "near_dups": 300,
              "batch_b_records": 2_000, "length_shift": 4}
EMBED_SIZES = {"records": 4_000, "types": 5_000, "dim": 64, "clusters": 8}
PAIRS_SIZES = {"pairs": 400, "types": 2_000, "dim": 64, "coverage": 0.95}
TARGET_RANKS = (1, 5, 50, 500)
ZIPF_EXPONENT = 1.1


def _rng(seed: int, stream: str) -> random.Random:
    # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{stream}")


def vocabulary(rng: random.Random, n_types: int) -> list[str]:
    """n_types distinct pronounceable words in Zipf rank order: shorter words
    tend to rank first, as in natural language."""
    words: dict[str, None] = {}
    while len(words) < n_types:
        n_syl = rng.choices((1, 2, 3, 4), weights=_SYLLABLE_WEIGHTS)[0]
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                       for _ in range(n_syl))
        words[word] = None
    noise = {w: len(w) + rng.uniform(0.0, 30.0) for w in words}
    return sorted(words, key=noise.__getitem__)


def zipf_cum_weights(n_types: int, exponent: float = ZIPF_EXPONENT) -> list[float]:
    return list(itertools.accumulate(1.0 / r ** exponent for r in range(1, n_types + 1)))


def _length(rng: random.Random, mode: int, low: int, high: int) -> int:
    return int(round(rng.triangular(low, high, mode)))


def sentence_text(rng: random.Random, words: list[str]) -> str:
    """Words split into 1-4 punctuated, capitalized sentences."""
    n_sent = min(len(words), rng.randint(1, 4))
    cuts = sorted(rng.sample(range(1, len(words)), n_sent - 1)) if n_sent > 1 else []
    sentences = []
    for lo, hi in zip([0] + cuts, cuts + [len(words)]):
        part = list(words[lo:hi])
        part[0] = part[0].capitalize()
        for i in range(len(part) - 1):
            if rng.random() < 0.06:
                part[i] += ","
        sentences.append(" ".join(part) + rng.choice(_ENDINGS))
    return " ".join(sentences)


def _near_duplicate(rng: random.Random, text: str) -> str:
    """Same text after case-folding and whitespace collapsing, different bytes."""
    words = text.split(" ")
    i = rng.randrange(len(words))
    words[i] = words[i].upper() if rng.random() < 0.5 else words[i].swapcase()
    seps = [rng.choice(("  ", "\t", " \t ")) if rng.random() < 0.15 else " "
            for _ in range(len(words) - 1)]
    return "".join(w + s for w, s in zip(words, seps + [""])) + rng.choice(("", " ", "\n"))


def _text_records(rng, vocab, cum, n, mode, low, high):
    """n records whose texts are distinct even after case-folding and whitespace
    collapsing; returns (texts, token counts)."""
    texts, lengths, seen = [], [], set()
    while len(texts) < n:
        n_tok = _length(rng, mode, low, high)
        words = rng.choices(vocab, cum_weights=cum, k=n_tok)
        text = sentence_text(rng, words)
        key = " ".join(text.split()).casefold()
        if key in seen:
            continue
        seen.add(key)
        texts.append(text)
        lengths.append(n_tok)
    return texts, lengths


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _text_batch(rng, vocab, cum, prefix, n_records, n_exact, n_near, shift):
    n_unique = n_records - n_exact - n_near
    texts, lengths = _text_records(rng, vocab, cum, n_unique, 30 + shift, 8 + shift, 52 + shift)
    present = set(texts)
    entries = list(zip(texts, lengths))
    for _ in range(n_exact):
        entries.append(entries[rng.randrange(n_unique)])
    for _ in range(n_near):
        text, length = entries[rng.randrange(n_unique)]
        variant = _near_duplicate(rng, text)
        while variant in present:
            variant = _near_duplicate(rng, text)
        present.add(variant)
        entries.append((variant, length))
    rng.shuffle(entries)
    stamp = 1_700_000_000
    rows = []
    for i, (text, _) in enumerate(entries):
        gap = rng.expovariate(1 / 20) if rng.random() < 0.8 else rng.expovariate(1 / 2000)
        stamp += int(gap)
        source = rng.choices(_SOURCES, weights=_SOURCE_WEIGHTS)[0]
        rows.append({"id": f"{prefix}{i:06d}", "text": text, "timestamp": stamp,
                     "attributes": {"source": source}})
    total = sum(length for _, length in entries)
    return rows, total / n_records


def text_zipf(out_dir: Path, seed: int, sizes: dict = TEXT_SIZES) -> dict:
    """Batch A (with injected duplicates), batch B (lengths shifted), config and
    assoc targets."""
    rng = _rng(seed, "text-zipf")
    vocab = vocabulary(rng, sizes["types"])
    cum = zipf_cum_weights(len(vocab))
    rows_a, mean_a = _text_batch(rng, vocab, cum, "a", sizes["records"],
                                 sizes["exact_dups"], sizes["near_dups"], 0)
    rows_b, mean_b = _text_batch(rng, vocab, cum, "b", sizes["batch_b_records"],
                                 0, 0, sizes["length_shift"])
    _write_jsonl(out_dir / "batch_a.jsonl", rows_a)
    _write_jsonl(out_dir / "batch_b.jsonl", rows_b)
    targets = [vocab[r - 1] for r in TARGET_RANKS if r <= len(vocab)]
    (out_dir / "targets.txt").write_text("\n".join(targets) + "\n", encoding="utf-8")
    (out_dir / "settings.ini").write_text(
        "[measure]\nlm_order = 2\n"
        f"burstiness_token = {vocab[4]}\ndiversity_attribute = source\n\n"
        "[dedup]\nnormalization = fold-and-collapse\n",
        encoding="utf-8",
    )
    return {
        "n_records": sizes["records"],
        "excess_exact": sizes["exact_dups"],
        "excess_normalized": sizes["exact_dups"] + sizes["near_dups"],
        "mean_length_a": mean_a,
        "mean_length_b": mean_b,
        "length_shift": sizes["length_shift"],
        "targets": targets,
    }


def _embedding_rows(rng, labels, dim, n_clusters):
    """Text-vec file contents and the rows as written (rounded to 6 decimals)."""
    centres = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(n_clusters)]
    lines = [f"{len(labels)} {dim}"]
    rows = []
    for label in labels:
        centre = rng.choice(centres)
        spread = rng.choice((0.3, 0.6, 1.0))
        cells = [f"{c + rng.gauss(0.0, spread):.6f}" for c in centre]
        lines.append(label + " " + " ".join(cells))
        rows.append([float(x) for x in cells])
    return "\n".join(lines) + "\n", rows


def embed_gauss(out_dir: Path, seed: int, sizes: dict = EMBED_SIZES) -> dict:
    """Short records plus one Gaussian-mixture embedding row per record id.

    The manifest carries the embedding dispersion (mean distance to the
    centroid) and the bounding-box log density, computed here independently.
    """
    rng = _rng(seed, "embed-gauss")
    vocab = vocabulary(rng, sizes["types"])
    cum = zipf_cum_weights(len(vocab))
    texts, _ = _text_records(rng, vocab, cum, sizes["records"], 6, 3, 10)
    rows = [{"id": f"e{i:06d}", "text": text} for i, text in enumerate(texts)]
    _write_jsonl(out_dir / "corpus.jsonl", rows)
    emb, vectors = _embedding_rows(rng, [r["id"] for r in rows], sizes["dim"], sizes["clusters"])
    (out_dir / "vectors.txt").write_text(emb, encoding="utf-8")
    n = len(vectors)
    columns = list(zip(*vectors))
    centroid = [math.fsum(col) / n for col in columns]
    dispersion = math.fsum(
        math.sqrt(math.fsum((x - c) ** 2 for x, c in zip(row, centroid))) for row in vectors
    ) / n
    log_density = math.log(n) - math.fsum(math.log(max(col) - min(col)) for col in columns)
    return {"n_records": n, "dispersion": dispersion, "log_density": log_density}


def doc_pairs(out_dir: Path, seed: int, sizes: dict = PAIRS_SIZES) -> dict:
    """Document pairs plus token embeddings that miss about 5% of the types."""
    rng = _rng(seed, "doc-pairs")
    vocab = vocabulary(rng, sizes["types"])
    cum = zipf_cum_weights(len(vocab))
    covered = [w for w in vocab if rng.random() < sizes["coverage"]]
    covered_set = set(covered)
    rows, dropped = [], 0
    for _ in range(sizes["pairs"]):
        pair = []
        for _side in "ab":
            words = rng.choices(vocab, cum_weights=cum, k=_length(rng, 30, 10, 50))
            while not covered_set.intersection(words):
                words = rng.choices(vocab, cum_weights=cum, k=len(words))
            dropped += sum(w not in covered_set for w in words)
            pair.append(sentence_text(rng, words))
        rows.append({"a": pair[0], "b": pair[1]})
    _write_jsonl(out_dir / "pairs.jsonl", rows)
    emb, _ = _embedding_rows(rng, covered, sizes["dim"], 1)
    (out_dir / "tokens.txt").write_text(emb, encoding="utf-8")
    return {"n_pairs": len(rows), "dropped_tokens": dropped}


GENERATORS = {"text-zipf": text_zipf, "embed-gauss": embed_gauss, "doc-pairs": doc_pairs}
