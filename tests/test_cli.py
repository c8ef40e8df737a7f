"""End-to-end command-line tests driven through main()."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmeter
import dmeter.corpus
from dmeter.cli import _load_config, main
from dmeter.corpus import ingest
from dmeter.report import DEFAULT_CONFIG, parse_report
from dmeter.vectors import EmbeddingMatrix, save_embeddings

ROWS = [
    {"id": "a", "text": "the quick brown fox jumps.", "timestamp": 0},
    {"id": "b", "text": "the quick brown fox jumps.", "timestamp": 60},
    {"id": "c", "text": "a slow green turtle walks.", "timestamp": 120},
    {"id": "d", "text": "the lazy dog sleeps all day.", "timestamp": 180},
]


@pytest.fixture
def corpus_path(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in ROWS) + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def emb_path(tmp_path):
    rng = np.random.default_rng(42)
    emb = EmbeddingMatrix([r["id"] for r in ROWS], rng.standard_normal((len(ROWS), 4)))
    p = tmp_path / "emb.vec"
    save_embeddings(emb, str(p))
    return str(p)


class TestMeasure:
    def test_clean_run_writes_report_and_exits_zero(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", corpus_path, "--metrics", "tendency,quality",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert f"report written to {out}" in captured.out
        rep = parse_report(str(out))
        assert "zipf" in rep.measurements
        assert "flesch_reading_ease" in rep.measurements
        # periodic timestamps
        assert rep.measurements["burstiness_timestamp"]["value"] == -1.0

    def test_stdout_has_one_line_per_measurement(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["measure", "--input", corpus_path, "--metrics", "quality", "--out", str(out)])
        lines = capsys.readouterr().out.strip().splitlines()
        rep = parse_report(str(out))
        assert len(lines) == len(rep.measurements) + 1  # plus the "written to" line
        for name in rep.measurements:
            assert any(ln.startswith(f"{name}:") for ln in lines)

    def test_skipped_entries_give_exit_two_but_still_write(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", corpus_path, "--out", str(out)])
        assert code == 2  # density/diversity embedding entries skipped
        rep = parse_report(str(out))
        assert rep.measurements["knn_density"]["flags"] == ["skipped:no-embeddings"]

    def test_timestamp_gap_past_the_float_range_fails_only_its_entry(self, tmp_path, capsys):
        p = tmp_path / "stamps.jsonl"
        p.write_text("".join(json.dumps({"id": str(ts), "text": "a b.", "timestamp": ts}) + "\n"
                             for ts in (0, 5, 10**400)), encoding="utf-8")
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", str(p), "--metrics", "tendency", "--out", str(out)])
        assert code == 2
        entry = parse_report(str(out)).measurements["burstiness_timestamp"]
        assert entry["flags"] == ["error:argument"] and entry["value"] is None
        assert entry["note"] == (f"the gap between timestamps 5 and {10**400} "
                                 "is past the float range")
        assert "burstiness_timestamp: error:argument (the gap between" in capsys.readouterr().out

    def test_undefined_entry_prints_its_note(self, tmp_path, capsys):
        p = tmp_path / "one.jsonl"
        p.write_text('{"id": "x", "text": "a a a."}\n', encoding="utf-8")
        code = main(["measure", "--input", str(p), "--metrics", "tendency",
                     "--out", str(tmp_path / "rep.json")])
        assert code == 2  # the timestamp burstiness entry is skipped
        lines = capsys.readouterr().out.splitlines()
        assert "zipf: undefined (Zipf fit undefined for fewer than 2 distinct items)" in lines

    def test_embeddings_unlock_density_metrics(self, corpus_path, emb_path, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", corpus_path, "--embeddings", emb_path,
                     "--out", str(out)])
        assert code == 0
        rep = parse_report(str(out))
        assert isinstance(rep.measurements["knn_density"]["value"]["global"], float)
        assert rep.measurements["vendi_score"]["params"]["embedding_source"] == emb_path

    def test_unknown_metric_fails_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", str(tmp_path / "does-not-exist.jsonl"),
                     "--metrics", "quality,sentiment", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "sentiment" in err
        assert "tendency, diversity, density, quality" in err
        assert not out.exists()

    def test_empty_metric_selection_fails_before_reading_input(self, tmp_path, capsys):
        code = main(["measure", "--input", str(tmp_path / "does-not-exist.jsonl"),
                     "--metrics", " , ", "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "metric selection is empty" in capsys.readouterr().err

    def test_removed_dedup_top_cap_key_fatal(self, corpus_path, tmp_path, capsys):
        ini = tmp_path / "old.ini"
        ini.write_text("[measure]\ndedup_top_cap = 3\n", encoding="utf-8")
        assert main(["measure", "--input", corpus_path, "--config", str(ini),
                     "--out", str(tmp_path / "rep.json")]) == 1
        assert "unknown [measure] config key 'dedup_top_cap'" in capsys.readouterr().err

    def test_unreadable_input_is_fatal(self, tmp_path, capsys):
        code = main(["measure", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_header_the_csv_module_rejects_is_one_fatal_line(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        p.write_text('"' + "x" * 200_000 + '",text\n1,ok\n', encoding="utf-8")
        code = main(["measure", "--input", str(p), "--format", "csv",
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {p}: malformed CSV header: field larger than field limit (131072)"]

    def test_missing_input_flag(self, capsys):
        assert main(["measure"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_malformed_lines_reported_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "good text."}\nnot json\n', encoding="utf-8")
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", str(p), "--metrics", "quality", "--out", str(out)])
        assert code == 0
        assert "skipped line 2" in capsys.readouterr().err
        assert parse_report(str(out)).measurements["duplicates_exact"]["value"]["n_records"] == 1

    def test_default_out_path(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["measure", "--input", corpus_path, "--metrics", "quality"])
        assert (tmp_path / "report.json").exists()

    def test_tokenizer_flag(self, corpus_path, tmp_path):
        out = tmp_path / "rep.json"
        main(["measure", "--input", corpus_path, "--metrics", "quality",
              "--tokenizer", "character:nofold", "--out", str(out)])
        rep = parse_report(str(out))
        assert rep.tokenizer_config == {"mode": "character", "case_fold": False}

    def test_bad_tokenizer_flag(self, corpus_path, capsys):
        assert main(["measure", "--input", corpus_path, "--tokenizer", "bpe"]) == 1
        assert "unknown tokenizer mode" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, corpus_path, tmp_path):
        out = tmp_path / "rep.json"
        ini = tmp_path / "dmeter.ini"
        ini.write_text(
            "[tokenizer]\nmode = whitespace\ncase_fold = false\n\n"
            f"[measure]\nmetrics = quality\nout = {out}\nlm_smoothing = 0.5\n",
            encoding="utf-8",
        )
        code = main(["measure", "--input", corpus_path, "--config", str(ini)])
        assert code == 0
        rep = parse_report(str(out))
        assert rep.tokenizer_config == {"mode": "whitespace", "case_fold": False}
        assert set(rep.measurements) == {
            "duplicates_exact", "duplicates_normalized", "redundancy_entropy",
            "flesch_reading_ease",
        }

    def test_flags_override_config(self, corpus_path, tmp_path):
        out = tmp_path / "rep.json"
        ini = tmp_path / "dmeter.ini"
        ini.write_text("[measure]\nmetrics = quality\n[tokenizer]\nmode = character\n",
                       encoding="utf-8")
        main(["measure", "--input", corpus_path, "--config", str(ini),
              "--metrics", "tendency", "--tokenizer", "whitespace", "--out", str(out)])
        rep = parse_report(str(out))
        assert "zipf" in rep.measurements
        assert "duplicates_exact" not in rep.measurements
        assert rep.tokenizer_config["mode"] == "whitespace"

    def test_unknown_config_key_fatal(self, corpus_path, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[measure]\nztipf_method = x\n", encoding="utf-8")
        assert main(["measure", "--input", corpus_path, "--config", str(ini)]) == 1
        assert "unknown [measure] config key" in capsys.readouterr().err

    def test_missing_config_file_fatal(self, corpus_path, capsys):
        assert main(["measure", "--input", corpus_path, "--config", "/no/such.ini"]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_values_take_the_type_of_their_default(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[measure]\n" + "".join(
            f"{k} = {'text' if v is None else v}\n" for k, v in DEFAULT_CONFIG.items()),
            encoding="utf-8")
        measure = _load_config(str(ini))["measure"]
        parsed = {k: measure[k] for k in DEFAULT_CONFIG}
        assert parsed == {k: "text" if v is None else v for k, v in DEFAULT_CONFIG.items()}
        assert all(type(parsed[k]) is type(v) for k, v in DEFAULT_CONFIG.items() if v is not None)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("command, section, key", [
        ("measure", "measure", "lm_smoothing"), ("assoc", "assoc", "smoothing"),
    ])
    def test_non_finite_float_config_value_fatal(self, corpus_path, tmp_path, capsys,
                                                 command, section, key, value):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", corpus_path, "--config", str(ini), "--out", str(out)]
                    + (["--targets", str(targets)] if command == "assoc" else []))
        assert code == 1
        assert (f"error: [{section}] config key {key!r} must be finite, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("body, reason", [
        (b"2 4\na 1 0 0 0\n\nb 0 1 nan 0\n", "line 4: non-finite value"),
        (b"2 4\na 1 0 0 0\nb\xff 0 1 0 0\n", "line 3: not valid UTF-8"),
        (b"2 4\na 1 0 0 0\n\na 0 1 0 0\n", "line 4: duplicate label 'a'"),
        (b"\n", "empty embedding file"),
        (b"-1 4\n", "invalid header n=-1 d=4"),
    ], ids=["non-finite", "not-utf8", "duplicate-label", "empty", "negative-rows"])
    def test_bad_embedding_file_names_path_and_line(self, corpus_path, tmp_path, capsys,
                                                     body, reason):
        emb = tmp_path / "emb.vec"
        emb.write_bytes(body)
        code = main(["measure", "--input", corpus_path, "--embeddings", str(emb),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert f"error: {emb}: {reason}" in capsys.readouterr().err

    def test_lm_config_applies(self, corpus_path, tmp_path):
        out = tmp_path / "rep.json"
        ini = tmp_path / "c.ini"
        ini.write_text("[measure]\nlm_order = 2\nlm_smoothing = 0.25\n", encoding="utf-8")
        main(["measure", "--input", corpus_path, "--config", str(ini),
              "--metrics", "tendency", "--out", str(out)])
        params = parse_report(str(out)).measurements["perplexity_self"]["params"]
        assert params["order"] == 2
        assert params["smoothing"] == 0.25

    def test_plaintext_format(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("first line of text.\nsecond line of text.\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        code = main(["measure", "--input", str(p), "--format", "plaintext",
                     "--metrics", "quality", "--out", str(out)])
        assert code == 0
        rep = parse_report(str(out))
        assert rep.measurements["duplicates_exact"]["value"]["n_records"] == 2

    def test_reproducible_bytes_with_pinned_epoch(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["measure", "--input", corpus_path, "--metrics", "quality", "--out", str(out1)])
        main(["measure", "--input", corpus_path, "--metrics", "quality", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCompare:
    def make_report(self, tmp_path, name, texts):
        src = tmp_path / f"{name}.jsonl"
        src.write_text(
            "\n".join(json.dumps({"id": f"{name}{i}", "text": t}) for i, t in enumerate(texts)),
            encoding="utf-8",
        )
        out = tmp_path / f"{name}.report.json"
        code = main(["measure", "--input", str(src), "--metrics", "quality,diversity",
                     "--out", str(out)])
        assert code in (0, 2)
        return str(out)

    def test_delta_table_and_json(self, tmp_path, capsys):
        base = self.make_report(tmp_path, "base", ["alpha beta gamma.", "alpha beta gamma."])
        cand = self.make_report(tmp_path, "cand", ["alpha beta.", "delta epsilon zeta."])
        capsys.readouterr()
        delta_path = tmp_path / "delta.json"
        code = main(["compare", base, cand, "--out", str(delta_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("measurement")
        assert "comparable:" in out.splitlines()[-1]
        payload = json.loads(delta_path.read_text(encoding="utf-8"))
        assert payload["entries"]["token_entropy"]["comparable"] is True

    def test_identical_inputs_zero_deltas(self, tmp_path, capsys):
        base = self.make_report(tmp_path, "x", ["same text here."])
        capsys.readouterr()
        assert main(["compare", base, base]) == 0
        out = capsys.readouterr().out
        assert "+0" in out

    def test_report_name_starting_with_a_brace_is_a_path(self, tmp_path, monkeypatch, capsys):
        name = Path(self.make_report(tmp_path, "{r}", ["same text here."])).name
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["compare", name, name]) == 0
        assert capsys.readouterr().err == ""

    def test_unparseable_report_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all", encoding="utf-8")
        good = self.make_report(tmp_path, "g", ["words."])
        assert main(["compare", str(bad), good]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_schema_major_mismatch_fatal(self, tmp_path, capsys):
        base = self.make_report(tmp_path, "b", ["words."])
        obj = json.loads((tmp_path / "b.report.json").read_text(encoding="utf-8"))
        obj["schema_version"] = "2.0"
        other = tmp_path / "v2.json"
        other.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["compare", base, str(other)]) == 1
        assert "schema version mismatch" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        good = self.make_report(tmp_path, "g", ["words."])
        assert main(["compare", str(tmp_path / "absent.json"), good]) == 1

    @pytest.mark.parametrize("damage", [
        lambda obj: 5,
        lambda obj: {**obj, "measurements": [1]},
        lambda obj: {**obj, "measurements": {**obj["measurements"], "token_entropy": 5}},
        # Iterated as a string, "error:x" would read as seven harmless flags.
        lambda obj: {**obj, "measurements": {**obj["measurements"], "token_entropy": {
            **obj["measurements"]["token_entropy"], "flags": "error:x"}}},
    ], ids=["top-level-number", "measurements-not-an-object", "entry-not-an-object",
            "flags-a-string"])
    def test_malformed_report_shape_names_file(self, tmp_path, capsys, damage):
        good = self.make_report(tmp_path, "g", ["words here.", "more words."])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(damage(json.loads(Path(good).read_text(encoding="utf-8")))),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", good, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.out == ""


def _unreadable(tmp_path, kind: str) -> Path:
    """A path that cannot be read: one that does not exist, or a directory."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    return path


UNREADABLE = pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory")])


class TestUnreadableFile:
    """Every file a command opens is read one way: one that cannot be opened
    is one fatal line naming what it is, its path and why, and the config and
    side files are read before the corpus, so no ingest warning comes first."""

    def files(self, tmp_path, command) -> dict:
        corpus = tmp_path / "skips-a-line.jsonl"
        corpus.write_text('{"id": "a", "text": "a b"}\nnot json\n', encoding="utf-8")
        ini = tmp_path / "c.ini"
        ini.write_text("[dedup]\ntop_cap = 3\n", encoding="utf-8")
        files = {"--config": ini, "--input": corpus}
        if command == "measure":
            files["--embeddings"] = tmp_path / "emb.vec"
            files["--embeddings"].write_text("1 2\na 1 0\n", encoding="utf-8")
        if command == "assoc":
            files["--targets"] = tmp_path / "targets.txt"
            files["--targets"].write_text("a\n", encoding="utf-8")
        return files

    @staticmethod
    def argv(command, files, out) -> list[str]:
        return [command, "--out", str(out)] + [a for opt, path in files.items()
                                               for a in (opt, str(path))]

    @pytest.mark.parametrize("command", ["measure", "assoc", "dedup"])
    def test_readable_files_run_with_an_ingest_warning(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main(self.argv(command, self.files(tmp_path, command), out)) in (0, 2)
        assert "ingest: skipped line 2: invalid JSON" in capsys.readouterr().err
        assert out.exists()

    @UNREADABLE
    @pytest.mark.parametrize("command, option, what", [
        ("measure", "--config", "config file"),
        ("measure", "--embeddings", "embeddings"),
        ("measure", "--input", "input"),
        ("assoc", "--config", "config file"),
        ("assoc", "--targets", "targets"),
        ("assoc", "--input", "input"),
        ("dedup", "--config", "config file"),
        ("dedup", "--input", "input"),
    ])
    def test_corpus_command(self, tmp_path, capsys, command, option, what, kind, reason):
        files = self.files(tmp_path, command)
        bad = files[option] = _unreadable(tmp_path, kind)
        out = tmp_path / "out.json"
        assert main(self.argv(command, files, out)) == 1
        assert capsys.readouterr() == ("", f"error: cannot read {what} {str(bad)!r}: {reason}\n")
        assert not out.exists()

    @UNREADABLE
    @pytest.mark.parametrize("side", [0, 1], ids=["baseline", "candidate"])
    def test_compare(self, corpus_path, tmp_path, capsys, side, kind, reason):
        good = str(tmp_path / "good.json")
        assert main(["measure", "--input", corpus_path, "--metrics", "quality",
                     "--out", good]) == 0
        capsys.readouterr()
        reports = [good, good]
        bad = reports[side] = str(_unreadable(tmp_path, kind))
        out = tmp_path / "delta.json"
        assert main(["compare", *reports, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read report {bad!r}: {reason}\n")
        assert not out.exists()


class TestAssoc:
    def test_top_coterms_and_absent_target_warning(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("# comment line\nfox\nunicorn\n", encoding="utf-8")
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fox" in out
        assert "npmi=+1.0000" in out  # quick/brown/jumps co-occur perfectly with fox
        assert "unicorn  [warning:target-absent]" in out
        assert "(no co-terms)" in out

    def test_json_output(self, corpus_path, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        out = tmp_path / "assoc.json"
        main(["assoc", "--input", corpus_path, "--targets", str(targets), "--out", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["context_mode"] == "document"
        fox = payload["targets"][0]
        assert fox["target"] == "fox"
        assert {c["term"] for c in fox["co_terms"]} == {"the", "quick", "brown", "jumps"}

    def test_targets_required(self, corpus_path, capsys):
        assert main(["assoc", "--input", corpus_path]) == 1
        assert "--targets" in capsys.readouterr().err

    def test_empty_targets_file(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("# only comments\n", encoding="utf-8")
        assert main(["assoc", "--input", corpus_path, "--targets", str(targets)]) == 1
        assert "no terms" in capsys.readouterr().err

    def test_window_mode_via_config(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        ini = tmp_path / "a.ini"
        ini.write_text("[assoc]\ncontext_mode = window\nwindow_size = 2\nsmoothing = 0.5\n",
                       encoding="utf-8")
        out = tmp_path / "assoc.json"
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets),
                     "--config", str(ini), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["context_mode"] == "window"
        assert payload["smoothing"] == 0.5
        # width-2 windows only pair adjacent tokens
        assert {c["term"] for c in payload["targets"][0]["co_terms"]} == {"brown", "jumps"}

    def test_window_past_any_c_integer_matches_document_mode(self, corpus_path, tmp_path):
        # No record of the corpus is empty, so each is one window and one document.
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\nturtle\n", encoding="utf-8")
        ini = tmp_path / "a.ini"
        ini.write_text(f"[assoc]\ncontext_mode = window\nwindow_size = {10**30}\n",
                       encoding="utf-8")
        payloads = {}
        for mode, config in (("window", ["--config", str(ini)]), ("document", [])):
            out = tmp_path / f"{mode}.json"
            assert main(["assoc", "--input", corpus_path, "--targets", str(targets),
                         "--out", str(out)] + config) == 0
            payloads[mode] = json.loads(out.read_text(encoding="utf-8"))
            assert payloads[mode].pop("context_mode") == mode
        assert payloads["window"] == payloads["document"]
        assert payloads["window"]["targets"][0]["co_terms"]

    @pytest.mark.parametrize("target", ["unicorn", "fox"], ids=["absent", "paired"])
    def test_negative_smoothing_fatal_for_any_target(self, corpus_path, tmp_path, capsys,
                                                      target):
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{target}\n", encoding="utf-8")
        ini = tmp_path / "a.ini"
        ini.write_text("[assoc]\nsmoothing = -1\n", encoding="utf-8")
        out = tmp_path / "assoc.json"
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets),
                     "--config", str(ini), "--out", str(out)])
        assert code == 1
        assert ("error: smoothing must be a finite number >= 0, got -1.0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_window_size_in_document_mode_fatal(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        ini = tmp_path / "a.ini"
        ini.write_text("[assoc]\nwindow_size = -3\n", encoding="utf-8")
        out = tmp_path / "assoc.json"
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets),
                     "--config", str(ini), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: window_size is for window mode only, got -3 in document mode"]
        assert not out.exists()

    def test_unknown_config_key_fatal(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        ini = tmp_path / "a.ini"
        ini.write_text("[assoc]\ntop_k = 1\n", encoding="utf-8")
        out = tmp_path / "assoc.json"
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets),
                     "--config", str(ini), "--out", str(out)])
        assert code == 1
        assert "unknown [assoc] config key 'top_k'" in capsys.readouterr().err
        assert not out.exists()

    def test_multiword_targets_pass_through_tokenizer(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("FOX\n", encoding="utf-8")
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets)])
        assert code == 0
        assert "fox" in capsys.readouterr().out  # folded by the default tokenizer

    def test_target_line_not_utf8_names_path_and_line(self, corpus_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_bytes(b"fox\r\n# note\rdog\xff\n")
        code = main(["assoc", "--input", corpus_path, "--targets", str(targets)])
        assert code == 1
        assert f"error: {targets}: line 3: not valid UTF-8" in capsys.readouterr().err


class TestDedup:
    def test_counts_and_entropy(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "dedup.json"
        code = main(["dedup", "--input", corpus_path, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "records: 4" in stdout
        assert "distinct: 3" in stdout
        assert "excess duplicates: 1" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["n_distinct"] == 3
        assert payload["top_clusters"][0]["count"] == 2

    def test_never_tokenizes(self, corpus_path, tmp_path, capsys, monkeypatch):
        # dedup reads only the records and the fingerprint, so no token store is built.
        fingerprint = ingest(corpus_path).fingerprint
        calls = []
        tokenize = dmeter.corpus.tokenize
        monkeypatch.setattr(dmeter.corpus, "tokenize",
                            lambda *args: calls.append(args) or tokenize(*args))
        out = tmp_path / "dedup.json"
        assert main(["dedup", "--input", corpus_path, "--out", str(out)]) == 0
        assert calls == []
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["n_records"] == 4 and payload["excess_duplicates"] == 1
        assert payload["corpus_fingerprint"] == fingerprint
        assert "excess duplicates: 1" in capsys.readouterr().out

    def test_normalization_via_config(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        rows = [{"id": "1", "text": "Hello  World"}, {"id": "2", "text": "hello world"}]
        p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        ini = tmp_path / "d.ini"
        ini.write_text("[dedup]\nnormalization = fold-and-collapse\n", encoding="utf-8")
        code = main(["dedup", "--input", str(p), "--config", str(ini)])
        assert code == 0
        assert "distinct: 1" in capsys.readouterr().out

    def test_unknown_config_key_fatal(self, corpus_path, tmp_path, capsys):
        ini = tmp_path / "d.ini"
        ini.write_text("[dedup]\nnormalisation = fold-and-collapse\n", encoding="utf-8")
        assert main(["dedup", "--input", corpus_path, "--config", str(ini)]) == 1
        assert "unknown [dedup] config key 'normalisation'" in capsys.readouterr().err

    def test_default_section_keys_only_apply_where_known(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        rows = [{"id": "1", "text": "Hello  World"}, {"id": "2", "text": "hello world"}]
        p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        ini = tmp_path / "d.ini"
        ini.write_text("[DEFAULT]\nnormalization = fold-and-collapse\n\n"
                       "[measure]\nmetrics = quality\n\n[dedup]\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["measure", "--input", str(p), "--config", str(ini), "--out", str(out)]) == 0
        assert main(["dedup", "--input", str(p), "--config", str(ini)]) == 0
        assert "distinct: 1" in capsys.readouterr().out

    def test_bad_normalization_fatal(self, corpus_path, tmp_path, capsys):
        ini = tmp_path / "d.ini"
        ini.write_text("[dedup]\nnormalization = soundex\n", encoding="utf-8")
        assert main(["dedup", "--input", corpus_path, "--config", str(ini)]) == 1
        assert "unknown normalization" in capsys.readouterr().err

    def test_negative_top_cap_fatal(self, corpus_path, tmp_path, capsys):
        # a negative cap would slice clusters off the list while the count still names them
        ini = tmp_path / "d.ini"
        ini.write_text("[dedup]\ntop_cap = -1\n", encoding="utf-8")
        out = tmp_path / "dedup.json"
        assert main(["dedup", "--input", corpus_path, "--config", str(ini),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: top_cap must be >= 0, got -1"]
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, what", [
    ("measure", "report"), ("compare", "delta"),
    ("assoc", "association table"), ("dedup", "dedup report"),
])
def test_unwritable_out_file_is_fatal_and_prints_nothing(corpus_path, tmp_path, capsys,
                                                         command, what):
    report = tmp_path / "rep.json"
    assert main(["measure", "--input", corpus_path, "--metrics", "quality",
                 "--out", str(report)]) == 0
    (tmp_path / "targets.txt").write_text("fox\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "missing" / "out.json"
    argv = {
        "measure": ["measure", "--input", corpus_path, "--metrics", "quality"],
        "compare": ["compare", str(report), str(report)],
        "assoc": ["assoc", "--input", corpus_path, "--targets", str(tmp_path / "targets.txt")],
        "dedup": ["dedup", "--input", corpus_path],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {what} to {str(out)!r}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("out, reason", [
    ("", "the path is empty"),
    ("missing/out.json", "'missing' is not a directory"),
    (".", "it is a directory"),
], ids=["empty", "missing-directory", "directory"])
@pytest.mark.parametrize("command, what", [
    ("measure", "report"), ("compare", "delta"),
    ("assoc", "association table"), ("dedup", "dedup report"),
])
def test_unwritable_out_path_is_refused_before_the_input_is_read(tmp_path, monkeypatch, capsys,
                                                                 command, what, out, reason):
    monkeypatch.chdir(tmp_path)  # no input named here exists
    argv = {
        "measure": ["measure", "--input", "nope.jsonl", "--embeddings", "nope.vec"],
        "compare": ["compare", "nope.json", "nope.json"],
        "assoc": ["assoc", "--input", "nope.jsonl", "--targets", "nope.txt"],
        "dedup": ["dedup", "--input", "nope.jsonl"],
    }[command]
    assert main(argv + [f"--out={out}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {what} to {out!r}: {reason}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_config_out_path_is_refused_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.ini").write_text("[measure]\nout = missing/report.json\n", encoding="utf-8")
    assert main(["measure", "--input", "nope.jsonl", "--config", "m.ini"]) == 1
    assert capsys.readouterr().err == ("error: cannot write report to 'missing/report.json': "
                                       "'missing' is not a directory\n")


def test_failed_command_leaves_an_existing_out_file_as_it_was(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.json").write_text("kept", encoding="utf-8")
    assert main(["dedup", "--input", "nope.jsonl", "--out", "out.json"]) == 1
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("command", ["assoc", "dedup"])
def test_reader_closing_stdout_early_leaves_out_file_whole(tmp_path, command):
    # Far more than a pipe holds, so the command is still printing when the
    # reader stops after two lines, as `dmeter ... | head -2` does.
    rows = [{"id": str(i), "text": f"hub w{i // 2} hub"} for i in range(8000)]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    (tmp_path / "targets.txt").write_text("hub\n", encoding="utf-8")
    (tmp_path / "c.ini").write_text("[assoc]\ntopk = 100000\n\n[dedup]\ntop_cap = 100000\n",
                                    encoding="utf-8")
    argv = [command, "--input", str(corpus), "--config", str(tmp_path / "c.ini")]
    if command == "assoc":
        argv += ["--targets", str(tmp_path / "targets.txt")]
    whole, cut = tmp_path / "whole.json", tmp_path / "cut.json"
    assert main(argv + ["--out", str(whole)]) == 0

    env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
    code = f"import sys, dmeter.cli; sys.exit(dmeter.cli.main({argv + ['--out', str(cut)]!r}))"
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        stderr = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=60) == 0
    assert all(head) and stderr == ""  # no BrokenPipeError traceback
    assert cut.read_bytes() == whole.read_bytes()


class TestParser:
    """A usage error ends like every bad argument: one `error:` line, exit 1,
    no usage text, and no file but the config file opened."""

    @staticmethod
    def _one_error_line(capsys) -> str:
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and "usage:" not in line
        return line

    def test_missing_subcommand_exits(self, capsys):
        assert main([]) == 1
        assert "command" in self._one_error_line(capsys)

    def test_unknown_subcommand_exits(self, capsys):
        assert main(["destroy"]) == 1
        assert "'destroy'" in self._one_error_line(capsys)

    @pytest.mark.parametrize("argv, named", [
        (["measure", "--input", "c.jsonl", "--bogus"], "--bogus"),
        (["measure", "--input", "c.jsonl", "--format", "xml"], "'xml'"),
        (["dedup", "--input"], "--input"),
        (["compare", "one.json"], "candidate"),
        (["assoc", "--input", "c.jsonl"], "--targets"),
    ], ids=["unknown-flag", "format-xml", "flag-without-value", "compare-one-report",
            "missing-targets"])
    def test_usage_error_is_one_line_and_exit_one(self, tmp_path, monkeypatch, capsys,
                                                  argv, named):
        monkeypatch.chdir(tmp_path)  # no file named here exists
        assert main(argv) == 1
        assert named in self._one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["measure", "--embeddings", "nope.vec"],
        ["assoc", "--targets", "nope.txt"],
        ["dedup", "--config", "nope.ini"],
    ], ids=["measure", "assoc", "dedup"])
    def test_missing_input_is_named_before_any_file_is_read(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        line = self._one_error_line(capsys)
        assert "--input" in line and "nope" not in line

    def test_tokenizer_flag_is_checked_before_the_side_files(self, corpus_path, tmp_path,
                                                             capsys):
        argv = ["measure", "--input", corpus_path, "--tokenizer", "bogus",
                "--embeddings", str(tmp_path / "nope.vec")]
        assert main(argv) == 1
        line = self._one_error_line(capsys)
        assert "tokenizer mode 'bogus'" in line and "nope.vec" not in line

    @pytest.mark.parametrize("command, flag, named", [
        ("measure", "--out", "cannot write report to ''"),
        ("assoc", "--out", "cannot write association table to ''"),
        ("dedup", "--out", "cannot write dedup report to ''"),
        ("compare", "--out", "cannot write delta to ''"),
        ("measure", "--config", "cannot read config file ''"),
        ("measure", "--tokenizer", "unknown tokenizer mode ''"),
        ("measure", "--embeddings", "cannot read embeddings ''"),
        ("measure", "--metrics", "metric selection is empty"),
    ], ids=["measure-out", "assoc-out", "dedup-out", "compare-out", "config", "tokenizer",
            "embeddings", "metrics"])
    def test_flag_with_an_empty_value_is_used(self, corpus_path, tmp_path, monkeypatch, capsys,
                                              command, flag, named):
        monkeypatch.chdir(tmp_path)
        report = str(tmp_path / "rep.json")
        assert main(["measure", "--input", corpus_path, "--metrics", "quality",
                     "--out", report]) == 0
        (tmp_path / "targets.txt").write_text("fox\n", encoding="utf-8")
        capsys.readouterr()
        argv = {
            "measure": ["measure", "--input", corpus_path],
            "compare": ["compare", report, report],
            "assoc": ["assoc", "--input", corpus_path, "--targets", "targets.txt"],
            "dedup": ["dedup", "--input", corpus_path],
        }[command]
        assert main(argv + [f"{flag}="]) == 1
        assert named in self._one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "rep.json",
                                                              "targets.txt"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "-h"])
        assert exc.value.code == 0
        assert "--input" in capsys.readouterr().out

    def test_entry_point_exits_one_with_one_line(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "dmeter.cli", "measure", "--bogus"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1  # argparse's own exit would be 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "usage:" not in line


def test_import_does_not_load_scipy_stats():
    # scipy.stats and scipy.optimize take most of a second to import, and
    # dmeter needs neither: spearman ranks with numpy and the exact EMD solve
    # loads only scipy's HiGHS extension.
    env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
    modules = ("scipy.stats", "scipy.optimize", "scipy.sparse")
    code = f"import sys, dmeter.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_zipf_fit_does_not_load_scipy_optimize(corpus_path, tmp_path):
    # The Zipf MLE finds its root with tendency._brentq, not scipy.optimize.
    env = dict(os.environ, PYTHONPATH=str(Path(dmeter.__file__).parents[1]))
    report = tmp_path / "report.json"
    argv = ["measure", "--input", corpus_path, "--metrics", "tendency", "--out", str(report)]
    code = (f"import sys, dmeter.cli; code = dmeter.cli.main({argv!r}); "
            "print(code, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 False"
    zipf = parse_report(str(report)).measurements["zipf"]
    assert zipf["flags"] == [] and 0 < zipf["value"]["alpha"] < 50


class TestConfigSections:
    """Every section goes through one reader: unknown keys are fatal, values
    take the type of their default, and a bad value names section and key."""

    @pytest.mark.parametrize("text", [
        "knn_k = 3\n",  # no section header
        "[measure]\nknn_k = 3\nknn_k = 4\n[assoc]\ntopk = 1\ntopk = 2\n",  # duplicate option
        "[measure]\nout = 100%.json\n[assoc]\ntopk = 1%\n[dedup]\ntop_cap = 1%\n",  # bare %
    ], ids=["no-section-header", "duplicate-option", "bare-percent"])
    @pytest.mark.parametrize("command", ["measure", "assoc", "dedup"])
    def test_malformed_config_file_is_fatal(self, corpus_path, tmp_path, capsys, command, text):
        ini = tmp_path / "c.ini"
        ini.write_text(text, encoding="utf-8")
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", corpus_path, "--config", str(ini), "--out", str(out)]
                    + (["--targets", str(targets)] if command == "assoc" else []))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("body, reason", [
        (b"knn_k = 3\n", "line 1: 'knn_k = 3' is not under a [section] header"),
        (b"[measure]\nknn_k = 3\nfoo\nbar\n",
         "line 3: neither a [section] header nor 'key = value'"),
        (b"[measure]\nknn_k = 3\nknn_k = 4\n",
         "line 3: [measure] config key 'knn_k' is set twice"),
        (b"[dedup]\n[measure]\n[dedup]\n", "line 3: section [dedup] appears twice"),
        (b"[measure]\nout = 100%.json\n",
         "[measure] config key 'out': '%' must be followed by '%' or '(', found: '%.json'"),
        (b"[measure]\nknn_k = 3\nout = \xff.json\n", "line 3: not valid UTF-8"),
    ], ids=["no-section-header", "no-equals", "duplicate-option", "duplicate-section",
            "bare-percent", "not-utf8"])
    @pytest.mark.parametrize("command", ["measure", "assoc", "dedup"])
    def test_malformed_config_message_is_one_line_naming_the_file(
            self, corpus_path, tmp_path, capsys, command, body, reason):
        ini = tmp_path / "c.ini"
        ini.write_bytes(body)
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        code = main([command, "--input", corpus_path, "--config", str(ini)]
                    + (["--targets", str(targets)] if command == "assoc" else []))
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {ini}: {reason}\n")

    @pytest.mark.parametrize("section, key", [
        ("tokenizer", "casefold"), ("measure", "ztipf_method"), ("assoc", "top_k"),
        ("dedup", "normalisation"),
    ])
    @pytest.mark.parametrize("input_name", ["missing.jsonl", "skips-a-line.jsonl"])
    @pytest.mark.parametrize("command", ["measure", "assoc", "dedup"])
    def test_config_errors_come_before_input(self, tmp_path, capsys, command, input_name,
                                             section, key):
        (tmp_path / "skips-a-line.jsonl").write_text('{"text": "a b"}\nnot json\n',
                                                     encoding="utf-8")
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", str(tmp_path / input_name), "--config", str(ini),
                     "--out", str(out)]
                    + (["--targets", str(tmp_path / "missing.txt")] if command == "assoc" else []))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown [{section}] config key {key!r}; ")
        assert captured.err.count("\n") == 1 and "ingest:" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("[tokenizer]\nmode = bpe\n",
         "unknown tokenizer mode 'bpe'; choose from ('unicode-word', 'whitespace', 'character')"),
        ("[measure]\nformat = xml\n", "unknown format 'xml'; choose from ('jsonl', 'plaintext', 'csv')"),
        ("[measure]\nmetrics = tendency,bogus\n",
         "unknown metric families ['bogus']; valid names: tendency, diversity, density, quality"),
        ("[assoc]\ntopk = 0\n", "k must be >= 1, got 0"),
        ("[assoc]\nsmoothing = -1\n", "smoothing must be a finite number >= 0, got -1.0"),
        ("[assoc]\ncontext_mode = sentence\n",
         "unknown context mode 'sentence'; choose from ('document', 'window')"),
        ("[assoc]\ncontext_mode = window\n", "window mode requires window_size >= 1, got None"),
        ("[assoc]\nwindow_size = -3\n",
         "window_size is for window mode only, got -3 in document mode"),
        ("[dedup]\nnormalization = fold\n",
         "unknown normalization 'fold'; choose from ('exact', 'fold-and-collapse')"),
        ("[dedup]\ntop_cap = -1\n", "top_cap must be >= 0, got -1"),
    ], ids=["tokenizer-mode", "format", "metrics", "topk", "smoothing", "context-mode", "window-no-size",
            "window-size-in-document-mode", "normalization", "top-cap"])
    @pytest.mark.parametrize("flags", [[], ["--tokenizer", "whitespace", "--format", "jsonl"]],
                             ids=["config-only", "flags-override"])
    @pytest.mark.parametrize("command", ["measure", "assoc", "dedup"])
    def test_bad_choice_or_range_is_fatal_before_input(self, tmp_path, capsys, command, flags,
                                                       body, message):
        corpus = tmp_path / "skips-a-line.jsonl"
        corpus.write_text('{"text": "a b"}\nnot json\n', encoding="utf-8")
        targets = tmp_path / "targets.txt"
        targets.write_text("a\n", encoding="utf-8")
        ini = tmp_path / "c.ini"
        ini.write_text(body, encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", str(corpus), "--config", str(ini), "--out", str(out)]
                    + flags + (["--targets", str(targets)] if command == "assoc" else []))
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value, reason", [
        ("measure", "measure", "knn_k", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("measure", "tokenizer", "case_fold", "maybe", "Not a boolean: maybe"),
        ("assoc", "assoc", "topk", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ])
    def test_bad_value_names_section_and_key(self, corpus_path, tmp_path, capsys,
                                             command, section, key, value, reason):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        targets = tmp_path / "targets.txt"
        targets.write_text("fox\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", corpus_path, "--config", str(ini), "--out", str(out)]
                    + (["--targets", str(targets)] if command == "assoc" else []))
        assert code == 1
        assert f"error: [{section}] config key {key!r}: {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [[], ["--tokenizer", "whitespace"]])
    @pytest.mark.parametrize("command", ["measure", "dedup"])
    def test_unknown_tokenizer_key_fatal_even_under_the_flag(self, corpus_path, tmp_path,
                                                             capsys, command, flag):
        ini = tmp_path / "c.ini"
        ini.write_text("[tokenizer]\ncasefold = false\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main([command, "--input", corpus_path, "--config", str(ini), "--out", str(out)]
                    + flag)
        assert code == 1
        assert "unknown [tokenizer] config key 'casefold'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, folded", [("false", False), ("no", False), ("off", False),
                                             ("0", False), ("true", True), ("yes", True)])
    def test_tokenizer_case_fold_read_as_a_boolean(self, tmp_path, raw, folded):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "The Cat"}\n{"id": "b", "text": "the cat"}\n',
                          encoding="utf-8")
        ini = tmp_path / "c.ini"
        ini.write_text(f"[tokenizer]\ncase_fold = {raw}\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["measure", "--input", str(corpus), "--config", str(ini),
                     "--metrics", "tendency", "--out", str(out)]) == 2  # no timestamps
        rep = parse_report(str(out))
        assert rep.tokenizer_config == {"mode": "unicode-word", "case_fold": folded}
        assert rep.measurements["token_count_stats"]["value"]["count"] == (2 if folded else 4)

    @pytest.mark.parametrize("ini_text, flag", [
        ("[tokenizer]\ncase_fold = false\n", []),
        ("[tokenizer]\ncase_fold = 0\n", []),
        ("[tokenizer]\ncase_fold = true\n", ["--tokenizer", "unicode-word:nofold"]),
    ], ids=["config-false", "config-0", "nofold-flag"])
    def test_case_fold_reaches_the_report_as_a_bool(self, corpus_path, tmp_path, ini_text, flag):
        ini = tmp_path / "c.ini"
        ini.write_text(ini_text, encoding="utf-8")
        tokenizer = _load_config(str(ini), flag[-1] if flag else None)["tokenizer"]
        assert tokenizer.case_fold is False
        out = tmp_path / "rep.json"
        assert main(["measure", "--input", corpus_path, "--config", str(ini),
                     "--metrics", "quality", "--out", str(out), *flag]) == 0
        assert parse_report(str(out)).tokenizer_config["case_fold"] is False

    def test_huge_lm_smoothing_gives_vocabulary_plus_one(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "the cat sat"}\n{"id": "b", "text": "the dog"}\n',
                          encoding="utf-8")
        ini = tmp_path / "c.ini"
        ini.write_text("[measure]\nlm_smoothing = 1e308\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["measure", "--input", str(corpus), "--config", str(ini),
                     "--metrics", "tendency", "--out", str(out)]) == 2  # no timestamps
        assert "perplexity_self: 5\n" in capsys.readouterr().out
        entry = parse_report(str(out)).measurements["perplexity_self"]
        assert entry["value"] == pytest.approx(5.0, rel=1e-12)
        assert entry["flags"] == []


@pytest.mark.parametrize("lines, value, flags", [
    (['{"id":"a","logprob":-1000,"n_tokens":1}'], None, ["infinite", "partial-coverage"]),
    (['{"id":"a","logprob":-1000,"n_tokens":1}', '{"id":"b","logprob":0,"n_tokens":1000}'],
     pytest.approx(math.exp(1000 / 1001), rel=1e-11), ["partial-coverage"]),
], ids=["corpus-overflows", "one-record-overflows"])
def test_external_perplexity_past_the_float_range_is_a_result(corpus_path, tmp_path, lines,
                                                               value, flags):
    scores, ini, out = tmp_path / "scores.jsonl", tmp_path / "m.ini", tmp_path / "rep.json"
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ini.write_text(f"[measure]\nperplexity_logprobs = {scores}\n", encoding="utf-8")
    code = main(["measure", "--input", corpus_path, "--metrics", "tendency",
                 "--config", str(ini), "--out", str(out)])
    assert code == 0
    entry = parse_report(str(out)).measurements["perplexity_external"]
    assert entry["value"] == value and entry["flags"] == flags


@pytest.mark.parametrize("n_tokens, logprob, value", [
    (10**306, -1e308, pytest.approx(math.exp(100), rel=1e-11)),
    (10**308, -1, pytest.approx(1.0, rel=1e-11)),
], ids=["logprob-sum-overflows", "token-count-overflows"])
def test_external_perplexity_of_an_overflowing_sum_is_finite(corpus_path, tmp_path, n_tokens,
                                                             logprob, value):
    scores, ini, out = tmp_path / "scores.jsonl", tmp_path / "m.ini", tmp_path / "rep.json"
    scores.write_text("".join(json.dumps({"id": rid, "logprob": logprob, "n_tokens": n_tokens})
                              + "\n" for rid in ("a", "b")), encoding="utf-8")
    ini.write_text(f"[measure]\nperplexity_logprobs = {scores}\n", encoding="utf-8")
    code = main(["measure", "--input", corpus_path, "--metrics", "tendency",
                 "--config", str(ini), "--out", str(out)])
    assert code == 0
    entry = parse_report(str(out)).measurements["perplexity_external"]
    assert entry["value"] == value and entry["flags"] == ["partial-coverage"]
