"""Byte-identity of every CLI output on a small seeded corpus.

A stdlib random.Random builds two JSONL batches with embeddings: exact and
case-or-space duplicates, non-ASCII text, attributes, timestamps and one
malformed line.  measure (all families, bigram LM), compare, assoc and dedup
run through dmeter.cli.main under SOURCE_DATE_EPOCH, and each output file,
stdout and stderr must hash to the SHA-256 recorded below.

A refactor that claims to give the same results must leave every digest as
it is.  A change that moves an output on purpose updates the digest and
says why in CHANGES.md.  The values are float bits as numpy computes them
on x86-64 with its bundled OpenBLAS; another BLAS may move last bits.
"""

import hashlib
import json
import random

from dmeter.cli import main

_WORDS = ("the", "of", "and", "data", "set", "record", "measure", "token", "café", "naïve",
          "straße", "über", "日本", "語", "δεδομένα", "corpus", "zipf", "rare", "word",
          "text", "sample", "value", "mean", "noise", "long", "tail", "shift", "batch")
_LANGS = ("en", "de", "fr", "日本")

SETTINGS = """\
[measure]
lm_order = 2
lm_smoothing = 0.5
burstiness_token = data
diversity_attribute = lang
knn_k = 3

[assoc]
topk = 5
smoothing = 0.5

[dedup]
normalization = fold-and-collapse
top_cap = 3
"""

TARGETS = "# golden targets\ndata\ncafé\n日本\nmissing\n"


def _batch(rng: random.Random, prefix: str, n: int, shift: int) -> list[str]:
    weights = [1.0 / (rank + 1 + shift) for rank in range(len(_WORDS))]
    rows, texts, clock = [], [], 1_700_000_000
    for i in range(n):
        if texts and rng.random() < 0.15:  # an exact or a case-and-space duplicate
            text = rng.choice(texts)
            if rng.random() < 0.5:
                text = "  " + text.upper().replace(" ", "   ")
        else:
            words = rng.choices(_WORDS, weights=weights, k=rng.randint(0, 14))
            text = " ".join(words).capitalize() + rng.choice((".", "!", "?", " 😀", ""))
        texts.append(text)
        row = {"id": f"{prefix}{i}", "text": text}
        if rng.random() < 0.8:
            row["attributes"] = {"lang": rng.choice(_LANGS), "src": rng.choice(("web", "news"))}
        if rng.random() < 0.9:
            clock += rng.randint(1, 600)
            row["timestamp"] = clock
        rows.append(json.dumps(row, ensure_ascii=rng.random() < 0.5))
    rows.insert(n // 2, '{"id": "broken", "text": 7}')
    return rows


def _embeddings(rng: random.Random, ids: list[str], dim: int = 6) -> str:
    lines = [f"{len(ids)} {dim}"]
    for rid in ids:
        lines.append(rid + " " + " ".join(repr(rng.gauss(0.0, 1.0)) for _ in range(dim)))
    return "\n".join(lines) + "\n"


def _write_inputs(root) -> None:
    rng = random.Random(20221018)
    for name, n, shift in (("a", 60, 0), ("b", 45, 3)):
        rows = _batch(rng, name, n, shift)
        (root / f"{name}.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (root / f"{name}.vec").write_text(_embeddings(rng, [f"{name}{i}" for i in range(n)]),
                                          encoding="utf-8")
    (root / "settings.ini").write_text(SETTINGS, encoding="utf-8")
    (root / "targets.txt").write_text(TARGETS, encoding="utf-8")


RUNS = {
    "measure_a": ["measure", "--input", "a.jsonl", "--embeddings", "a.vec",
                  "--config", "settings.ini", "--out", "report_a.json"],
    "measure_b": ["measure", "--input", "b.jsonl", "--embeddings", "b.vec",
                  "--config", "settings.ini", "--out", "report_b.json"],
    "compare": ["compare", "report_a.json", "report_b.json", "--out", "delta.json"],
    "assoc": ["assoc", "--input", "a.jsonl", "--targets", "targets.txt",
              "--config", "settings.ini", "--out", "assoc.json"],
    "dedup_fold": ["dedup", "--input", "a.jsonl", "--config", "settings.ini",
                   "--out", "dedup_fold.json"],
    "dedup_exact": ["dedup", "--input", "b.jsonl", "--out", "dedup_exact.json"],
}

GOLDEN = {
    "assoc.json": (0, "ca8a7208cc56a92feb6f4259f8038189dc086bb90041ef9d991d8deceaeb9df6"),
    "assoc.stderr": (0, "49351baf38b5b9685638d7e37f5373db42d9fb646b7e6158629b4258ea81378e"),
    "assoc.stdout": (0, "bc4b2266829cac66dd28baa0f4710c03c14ef81bc05c0ca2351c8a5ac8665820"),
    "compare.stderr": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compare.stdout": (0, "65a163cf8c2e9a1aeb377ab1477f91c57dadc31927335f6fee6b1f56dd4b16e4"),
    "dedup_exact.json": (0, "8fc9ede054b4aad3254d17e5ee97872faf0d21cfc96982fff3ee32474ae9606f"),
    "dedup_exact.stderr": (0, "b4c09082cdcc40d20d2b974ac82151b841a1f42f7c23f4dbc4269047cb363350"),
    "dedup_exact.stdout": (0, "ca3a97077e0fbfd2d197e34c872ba194949d93db40d00d52e5262f535aaea796"),
    "dedup_fold.json": (0, "d18b8affc13f90f215a9db8520ad45b26c8148dbe645ca6dc122a8dedff46494"),
    "dedup_fold.stderr": (0, "49351baf38b5b9685638d7e37f5373db42d9fb646b7e6158629b4258ea81378e"),
    "dedup_fold.stdout": (0, "9e103d65e760d6844c319e47aea50611dde2667cde9b59fe6ba8df09b2f0a034"),
    "delta.json": (0, "8c9aeba035f76de695e3f5e03e69cfec5dc45fbdd1493bbb2349a788fb6dab56"),
    "measure_a.stderr": (0, "49351baf38b5b9685638d7e37f5373db42d9fb646b7e6158629b4258ea81378e"),
    "measure_a.stdout": (0, "77675e19a242a68f36eea934874a7a61b53ca0e7d3122003a95e4d33eb525eaf"),
    "measure_b.stderr": (0, "b4c09082cdcc40d20d2b974ac82151b841a1f42f7c23f4dbc4269047cb363350"),
    "measure_b.stdout": (0, "0850ac30b89f363c4e0e6af3392f44eb30495c47ab6963a7f40a0f7603f369be"),
    "report_a.json": (0, "114c31a0af1bdd04b361d65fc62994f01f75ed3877811dfb88315ff2ebcbe241"),
    "report_b.json": (0, "7ce116c62968d786fcbe2b72a230967964dc340cd765f0bd9444ef21a7c04084"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(root, capsys, monkeypatch) -> dict:
    """{output name: (exit code of its run, SHA-256)} for every run in RUNS."""
    _write_inputs(root)
    monkeypatch.chdir(root)  # the report names its embedding file as given
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    digests = {}
    for name, argv in RUNS.items():
        code = main(argv)
        out, err = capsys.readouterr()
        digests[f"{name}.stdout"] = (code, _sha(out.encode("utf-8")))
        digests[f"{name}.stderr"] = (code, _sha(err.encode("utf-8")))
        out_file = argv[argv.index("--out") + 1]
        digests[out_file] = (code, _sha((root / out_file).read_bytes()))
    return digests


def test_cli_outputs_are_byte_identical(tmp_path, capsys, monkeypatch):
    assert golden_outputs(tmp_path, capsys, monkeypatch) == GOLDEN
