"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import generate  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {
    "text-zipf": {"records": 60, "types": 80, "exact_dups": 4, "near_dups": 3,
                  "batch_b_records": 20, "length_shift": 4},
    "embed-gauss": {"records": 40, "types": 60, "dim": 8, "clusters": 3},
    "doc-pairs": {"pairs": 12, "types": 50, "dim": 8, "coverage": 0.9},
}


def _generate(name, out_dir, seed):
    out_dir.mkdir()
    manifest = generate.GENERATORS[name](out_dir, seed, TINY[name])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return manifest, files


@pytest.mark.parametrize("name", sorted(generate.GENERATORS))
def test_generator_is_byte_deterministic(tmp_path, name):
    first = _generate(name, tmp_path / "a", 7)
    again = _generate(name, tmp_path / "b", 7)
    other = _generate(name, tmp_path / "c", 8)
    assert first == again
    assert first[1] != other[1]


def test_text_generator_known_answers(tmp_path):
    manifest, _ = _generate("text-zipf", tmp_path / "t", 3)
    sizes = TINY["text-zipf"]
    lines = (tmp_path / "t" / "batch_a.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    texts = [r["text"] for r in rows]
    normalized = {" ".join(t.split()).casefold() for t in texts}
    assert len(rows) == manifest["n_records"] == sizes["records"]
    assert len(rows) - len(set(texts)) == manifest["excess_exact"]
    assert len(rows) - len(normalized) == manifest["excess_normalized"]
    from dmeter.corpus import tokenize
    lengths = [len(tokenize(t)) for t in texts]
    assert sum(lengths) / len(lengths) == manifest["mean_length_a"]
    assert len(set(lengths)) > 1


class _Clock:
    """Deterministic clock: each reading advances by one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_span_time_minus_child_coverage():
    tracer = spans.Tracer(clock=_Clock())
    leaf = tracer.span("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    mid = tracer.span("middle", middle)

    def outer():
        mid()
        leaf()

    tracer.span("outer", outer)()
    durations = [end - start for _, start, end, _ in tracer.spans]
    own = spans.self_times(tracer.spans)
    for i, (name, start, end, _) in enumerate(tracer.spans):
        children = [s for s in tracer.spans if s[3] == i]
        covered = sum(c[2] - c[1] for c in children)
        assert own[i] == durations[i] - covered
    assert [s[0] for s in tracer.spans] == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert own == [3.0, 3.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    recorded = [
        ["parent", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a by 1
        ["c", 9.0, 12.0, 0],   # runs past the parent's end
    ]
    assert spans.self_times(recorded) == [10.0 - (5.0 + 1.0), 3.0, 3.0, 3.0]


def _attribute_snapshot():
    import dmeter.cli  # noqa: F401  (loads every module)
    from dmeter.corpus import Corpus

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "dmeter" or name.startswith("dmeter.")}
    return mods, dict(vars(Corpus))


def test_wrappers_restore_every_patched_attribute():
    import dmeter
    import dmeter.cli
    import dmeter.vectors

    before_mods, before_corpus = _attribute_snapshot()
    tracer = spans.Tracer()
    tracer.install("dmeter", layers.TARGETS)
    try:
        assert dmeter.cli.ingest is not before_mods["dmeter.cli"]["ingest"]
        assert dmeter.ingest is dmeter.cli.ingest  # every lookup site shares one wrapper
        assert dmeter.report.align_to_corpus is not before_mods["dmeter.report"]["align_to_corpus"]
        assert dmeter.distance.euclidean is not before_mods["dmeter.distance"]["euclidean"]
        assert dmeter.vectors.euclidean is before_mods["dmeter.vectors"]["euclidean"]
        assert vars(dmeter.Corpus)["__init__"] is not before_corpus["__init__"]
    finally:
        tracer.restore()
    after_mods, after_corpus = _attribute_snapshot()
    assert after_mods.keys() == before_mods.keys()
    for name, attrs in before_mods.items():
        assert after_mods[name].keys() == attrs.keys(), name
        for key, value in attrs.items():
            assert after_mods[name][key] is value, f"{name}.{key}"
    assert after_corpus == before_corpus


def test_every_span_maps_to_one_self_time_metric():
    span_names = {t.name for t in layers.TARGETS if not t.counter}
    mapped = [n for names in layers.SELF_TIME.values() for n in names]
    assert sorted(mapped) == sorted(span_names)
    assert set(layers.PEAKS.values()) <= span_names


def _measure(argv, out):
    import dmeter.cli

    assert dmeter.cli.main(argv + ["--out", str(out)]) in (0, 2)
    return out.read_bytes()


@pytest.mark.parametrize("peaks", [False, True])
def test_traced_measure_writes_identical_report_bytes(tmp_path, monkeypatch, capsys, peaks):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    text_dir, emb_dir = tmp_path / "t", tmp_path / "e"
    _generate("text-zipf", text_dir, 5)
    _generate("embed-gauss", emb_dir, 5)
    runs = [
        ["measure", "--input", str(text_dir / "batch_a.jsonl"),
         "--metrics", "tendency,diversity,quality", "--config", str(text_dir / "settings.ini")],
        ["measure", "--input", str(emb_dir / "corpus.jsonl"), "--metrics", "diversity,density",
         "--embeddings", str(emb_dir / "vectors.txt")],
    ]
    for i, argv in enumerate(runs):
        plain = _measure(argv, tmp_path / f"plain{i}.json")
        tracer = spans.Tracer(peak_names=layers.PEAKS.values() if peaks else ())
        tracer.install("dmeter", layers.TARGETS)
        try:
            traced = _measure(argv, tmp_path / f"traced{i}.json")
        finally:
            tracer.restore()
        assert traced == plain
        names = {s[0] for s in tracer.spans}
        assert {"cli.main", "corpus.ingest", "corpus.Corpus", "report.assemble_report"} <= names
        assert tracer.counts["report.entries"] == len(json.loads(plain)["measurements"])
        if peaks:
            assert tracer.peaks_mb["corpus.Corpus"] > 0


def test_error_entries_and_failed_exits_count_as_failed(tmp_path):
    import numpy as np
    from dmeter import Corpus, EmbeddingMatrix, Record, assemble_report, serialize_report

    corpus = Corpus([Record(id=str(i), text=f"word{i} shared") for i in range(4)])
    emb = EmbeddingMatrix([str(i) for i in range(4)], np.eye(4))
    rep = assemble_report(corpus, ["diversity"], config={"vendi_cap": 2}, embeddings=emb)
    path = tmp_path / "report.json"
    path.write_text(serialize_report(rep), encoding="utf-8")
    runner = run.Runner(tmp_path, trace=False, started=0.0)
    checker = run.Checker("tiny")
    entries = run._report(runner, checker, path, "measure")
    assert runner.attempted == len(entries)
    assert runner.failed == 1  # vendi_score over the cap is error:argument
    assert not checker.problems


def test_library_exceptions_count_as_failed():
    import child

    tally = child._tally()
    assert child._call(tally, divmod, 7, 2) == (3, 1)
    assert child._call(tally, divmod, 7, 0) is None
    assert (tally["attempted"], tally["failed"]) == (2, 1)
    assert "ZeroDivisionError" in tally["errors"][0]


def test_child_processes_report_exit_codes_setup_and_spans(tmp_path):
    text_dir = tmp_path / "t"
    _generate("text-zipf", text_dir, 9)
    runner = run.Runner(tmp_path, trace=False, started=time.monotonic())
    missing = runner.run("cli", argv=["dedup", "--input", str(tmp_path / "missing.jsonl")])
    assert missing["exit_code"] == 1
    assert (runner.attempted, runner.failed) == (1, 1)
    out = tmp_path / "report.json"
    traced = runner.run("cli", trace=True, argv=["measure", "--input",
                                                 str(text_dir / "batch_a.jsonl"),
                                                 "--out", str(out)])
    assert traced["exit_code"] == 2  # skipped embedding entries are a designed outcome
    assert (runner.attempted, runner.failed) == (2, 1)
    assert traced["spans"][0][0] == "cli.main"
    assert len(runner.setup_samples) == 2 and all(s > 0 for s in runner.setup_samples)
    assert out.exists()


def test_reference_units_divide_each_stretch_by_its_own_tick():
    assert reference.ref_units([[0.2, 0.001], [0.3, 0.002], [0.05, 0.001]]) == pytest.approx(400.0)


def test_sampler_ticks_during_the_block_and_restores_sigalrm():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(interval_s=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.ticks) >= 3  # interval ticks and the closing one
    assert all(work >= 0 and ref > 0 for work, ref in sampler.ticks)
    assert 0 < sampler.spent_s < 0.1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "doc-pairs", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
