"""Report assembly, canonical serialization, and batch comparison."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.corpus import Corpus, Record, TokenizerConfig
from dmeter.report import (
    DEFAULT_CONFIG,
    METRIC_FAMILIES,
    SCHEMA_VERSION,
    BatchDelta,
    MeasurementReport,
    _FAMILIES,
    _ReportBuilder,
    assemble_report,
    compare,
    format_delta_table,
    is_blocking,
    _numeric_fields,
    _sanitize,
    parse_report,
    serialize_delta,
    serialize_report,
)
from dmeter.vectors import EmbeddingMatrix, align_to_corpus


def small_corpus():
    rows = [
        ("r1", "the cat sat on the mat.", 100),
        ("r2", "the dog ran far away.", 200),
        ("r3", "the cat sat on the mat.", 350),
        ("r4", "a bird sang a quiet song.", 400),
    ]
    return Corpus([Record(id=i, text=t, timestamp=ts) for i, t, ts in rows])


def embeddings_for(corpus, dim=3, seed=42):
    rng = np.random.default_rng(seed)
    ids = [r.id for r in corpus.records]
    return EmbeddingMatrix(ids, rng.standard_normal((len(ids), dim)))


def entry(value, params=None, flags=(), unit="u"):
    return {
        "value": value,
        "unit": unit,
        "params": params or {},
        "flags": sorted(flags),
        "provenance": "self-contained",
    }


def handmade(measurements, version=SCHEMA_VERSION, fingerprint="f" * 16):
    return MeasurementReport(
        schema_version=version,
        corpus_fingerprint=fingerprint,
        tokenizer_config={"mode": "unicode-word", "case_fold": True},
        created_at="2026-01-01T00:00:00Z",
        measurements=measurements,
    )


class TestAssembleReport:
    def test_structure_and_fingerprint(self):
        c = small_corpus()
        rep = assemble_report(c, METRIC_FAMILIES, created_at="2026-01-01T00:00:00Z")
        assert rep.schema_version == SCHEMA_VERSION
        assert rep.corpus_fingerprint == c.fingerprint
        assert rep.tokenizer_config == {"mode": "unicode-word", "case_fold": True}
        assert list(rep.measurements) == sorted(rep.measurements)
        for e in rep.measurements.values():
            assert set(e) >= {"value", "unit", "params", "flags", "provenance"}
            assert e["flags"] == sorted(e["flags"])

    def test_family_selection(self):
        rep = assemble_report(small_corpus(), ["quality"])
        assert set(rep.measurements) == {
            "duplicates_exact",
            "duplicates_normalized",
            "redundancy_entropy",
            "flesch_reading_ease",
        }

    def test_selection_validation(self):
        with pytest.raises(ValueError, match="empty"):
            assemble_report(small_corpus(), [])
        with pytest.raises(ValueError, match="unknown metric families.*readability"):
            assemble_report(small_corpus(), ["quality", "readability"])

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            assemble_report(small_corpus(), ["quality"], config={"knnk": 3})

    def test_duplicate_selection_deduped(self):
        a = assemble_report(small_corpus(), ["quality", "quality"], created_at="x")
        b = assemble_report(small_corpus(), ["quality"], created_at="x")
        assert a.measurements == b.measurements

    def test_token_derived_entries_carry_tokenizer_params(self):
        rep = assemble_report(small_corpus(), ["tendency", "diversity"])
        for name in ("record_length_tokens", "zipf", "token_entropy", "ngram_diversity_2"):
            assert rep.measurements[name]["params"]["tokenizer"] == {
                "mode": "unicode-word",
                "case_fold": True,
            }

    def test_expected_values_on_known_corpus(self):
        rep = assemble_report(small_corpus(), METRIC_FAMILIES)
        m = rep.measurements
        assert m["record_length_tokens"]["value"]["count"] == 4
        assert m["record_length_tokens"]["value"]["mean"] == pytest.approx(5.75)
        assert m["duplicates_exact"]["value"]["excess_duplicates"] == 1
        assert m["burstiness_timestamp"]["value"] == pytest.approx(
            (np.std([100, 150, 50]) - 100) / (np.std([100, 150, 50]) + 100)
        )

    def test_no_embeddings_entries_skipped_with_reason(self):
        rep = assemble_report(small_corpus(), ["diversity", "density"])
        for name in ("vendi_score", "embedding_dispersion", "knn_density", "data_density"):
            e = rep.measurements[name]
            assert e["value"] is None
            assert e["flags"] == ["skipped:no-embeddings"]
            assert e["provenance"] == "external-model"

    def test_embedding_entries_present_and_tagged(self):
        c = small_corpus()
        rep = assemble_report(
            c, ["diversity", "density"], embeddings=embeddings_for(c), embedding_source="toy.vec"
        )
        vendi = rep.measurements["vendi_score"]
        assert vendi["provenance"] == "external-model"
        assert vendi["params"]["embedding_source"] == "toy.vec"
        assert 1.0 <= vendi["value"] <= 4.0
        knn = rep.measurements["knn_density"]
        assert knn["value"]["k_used"] == 3  # min(default 5, n - 1)
        assert knn["value"]["per_point_min"] <= knn["value"]["global"]

    def test_embeddings_must_cover_every_record(self):
        c = small_corpus()
        partial = EmbeddingMatrix(["r1", "r2"], np.eye(2))
        with pytest.raises(ValueError, match="missing"):
            assemble_report(c, ["density"], embeddings=partial)

    def test_vendi_cap_becomes_flagged_entry(self):
        c = small_corpus()
        rep = assemble_report(
            c, ["diversity"], config={"vendi_cap": 2}, embeddings=embeddings_for(c)
        )
        e = rep.measurements["vendi_score"]
        assert e["value"] is None
        assert "error:argument" in e["flags"]
        assert "cap" in e["note"]

    @pytest.mark.parametrize("smoothing", [True, False])
    def test_bool_lm_smoothing_is_an_argument_error(self, smoothing):
        rep = assemble_report(small_corpus(), ["tendency"], config={"lm_smoothing": smoothing})
        e = rep.measurements["perplexity_self"]
        assert e["flags"] == ["error:argument"] and e["value"] is None
        assert e["note"] == f"smoothing must be a finite number >= 0, got {smoothing}"
        rep = assemble_report(small_corpus(), ["tendency"], config={"lm_smoothing": 0.5})
        assert rep.measurements["perplexity_self"]["flags"] == []

    def test_metric_failure_is_isolated(self):
        # one distinct token: Zipf fit is undefined, everything else still lands
        c = Corpus([Record(id="a", text="w w w w")])
        rep = assemble_report(c, ["tendency"])
        z = rep.measurements["zipf"]
        assert z["value"] is None
        assert "undefined" in z["flags"]
        assert "note" in z
        assert rep.measurements["record_length_tokens"]["value"]["mean"] == 4.0

    def test_burstiness_skip_without_timestamps(self):
        c = Corpus([Record(id="a", text="x"), Record(id="b", text="y")])
        rep = assemble_report(c, ["tendency"])
        flags = rep.measurements["burstiness_timestamp"]["flags"]
        assert flags == ["skipped:needs-at-least-3-timestamped-records"]

    def test_burstiness_token_config(self):
        rep = assemble_report(small_corpus(), ["tendency"], config={"burstiness_token": "the"})
        e = rep.measurements["burstiness_token_the"]
        assert e["params"]["token"] == "the"
        assert isinstance(e["value"], float)

    @pytest.mark.parametrize("token", ["the", "cat", "absent"])
    def test_burstiness_token_under_3_occurrences_is_skipped(self, token):
        c = Corpus([Record(id="a", text="the cat the"), Record(id="b", text="a dog")])
        rep = assemble_report(c, ["tendency"], config={"burstiness_token": token})
        e = rep.measurements[f"burstiness_token_{token}"]
        assert e["flags"] == ["skipped:needs-at-least-3-occurrences-of-the-token"]
        assert e["value"] is None

    def test_burstiness_token_of_3_occurrences_is_measured(self):
        c = Corpus([Record(id="a", text="the cat the"), Record(id="b", text="a the dog")])
        rep = assemble_report(c, ["tendency"], config={"burstiness_token": "the"})
        e = rep.measurements["burstiness_token_the"]
        assert e["flags"] == [] and e["value"] == -1.0  # gaps of 2 and 2 are periodic

    def test_bad_lm_order_is_an_argument_error_on_a_corpus_of_no_records(self):
        rep = assemble_report(Corpus([]), ["tendency"], config={"lm_order": 3})
        e = rep.measurements["perplexity_self"]
        assert e["flags"] == ["error:argument"] and e["note"] == "order must be 1 or 2, got 3"

    def test_subset_diversity_config(self):
        recs = [
            Record(id="1", text="x", attributes={"lang": "en"}),
            Record(id="2", text="y", attributes={"lang": "de"}),
        ]
        rep = assemble_report(Corpus(recs), ["diversity"], config={"diversity_attribute": "lang"})
        e = rep.measurements["subset_diversity_lang"]
        assert e["value"]["entropy"] == pytest.approx(math.log(2))
        assert e["value"]["n_unlabeled"] == 0

    def test_absent_attribute_is_flagged_argument_error(self):
        rep = assemble_report(
            small_corpus(), ["diversity"], config={"diversity_attribute": "lang"}
        )
        assert "error:argument" in rep.measurements["subset_diversity_lang"]["flags"]

    def test_external_logprobs_config(self, tmp_path):
        c = small_corpus()
        path = tmp_path / "lp.jsonl"
        rows = [{"id": r.id, "logprob": -2.0 * (i + 1), "n_tokens": 2} for i, r in enumerate(c.records)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        rep = assemble_report(c, ["tendency"], config={"perplexity_logprobs": str(path)})
        e = rep.measurements["perplexity_external"]
        assert e["provenance"] == "external-model"
        assert e["value"] == pytest.approx(math.exp(20.0 / 8))

    def test_unreadable_logprob_file_is_an_argument_error(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        rep = assemble_report(small_corpus(), ["tendency"], config={"perplexity_logprobs": path})
        e = rep.measurements["perplexity_external"]
        assert e["flags"] == ["error:argument"]
        assert e["note"] == f"cannot read logprob file {path!r}: No such file or directory"

    def test_nonfinite_values_become_null_plus_flag(self):
        # 400 tiny dimensions force the raw density over the float ceiling
        rng = np.random.default_rng(42)
        ids = [f"r{i}" for i in range(6)]
        emb = EmbeddingMatrix(ids, rng.uniform(0, 1e-4, size=(6, 400)))
        c = Corpus([Record(id=i, text="x") for i in ids])
        rep = assemble_report(c, ["density"], embeddings=emb)
        e = rep.measurements["data_density"]
        assert e["value"]["density"] is None
        assert "infinite:density" in e["flags"]
        assert "overflow" in e["flags"]
        assert math.isfinite(e["value"]["log_density"])
        # and the sanitized report still serializes
        assert "data_density" in serialize_report(rep)

    def test_created_at_explicit_and_from_epoch(self, monkeypatch):
        c = small_corpus()
        rep = assemble_report(c, ["quality"], created_at="2030-12-31T23:59:59Z")
        assert rep.created_at == "2030-12-31T23:59:59Z"
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        rep2 = assemble_report(c, ["quality"])
        assert rep2.created_at == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("epoch, want", [
        ("-62135596800", "0001-01-01T00:00:00Z"),
        ("-30610224001", "0999-12-31T23:59:59Z"),
    ], ids=["year-1", "year-999"])
    def test_created_at_year_has_four_digits(self, monkeypatch, epoch, want):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert assemble_report(small_corpus(), ["quality"]).created_at == want

    @pytest.mark.parametrize("epoch", ["abc", "-99999999999", "99999999999999999999"],
                             ids=["not-an-integer", "year-out-of-range", "past-time_t"])
    def test_bad_source_date_epoch_is_named(self, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        monkeypatch.setitem(_FAMILIES, "quality",
                            lambda *_: pytest.fail("an entry was computed before the check"))
        with pytest.raises(ValueError) as info:
            assemble_report(small_corpus(), ["quality"])
        assert str(info.value) == ("SOURCE_DATE_EPOCH must be an integer number of seconds "
                                   f"that a date can hold, got {epoch!r}")

    def test_deterministic_given_created_at(self):
        a = assemble_report(small_corpus(), METRIC_FAMILIES, created_at="t")
        b = assemble_report(small_corpus(), METRIC_FAMILIES, created_at="t")
        assert serialize_report(a) == serialize_report(b)

    def test_default_config_values_used(self):
        rep = assemble_report(small_corpus(), ["tendency"])
        assert rep.measurements["zipf"]["params"]["fit_method"] == DEFAULT_CONFIG["zipf_method"]
        assert rep.measurements["perplexity_self"]["params"]["smoothing"] == 1.0

    def test_extra_embedding_rows_are_ignored(self):
        c = small_corpus()
        exact = embeddings_for(c)
        extra = EmbeddingMatrix(["extra", *exact.labels],
                                np.vstack([[9.0, -9.0, 9.0], exact.matrix]))
        aligned = [align_to_corpus(e, c) for e in (exact, extra)]
        assert aligned[0].labels == aligned[1].labels == tuple(r.id for r in c.records)
        assert np.array_equal(aligned[0].matrix, aligned[1].matrix)
        reps = [assemble_report(c, ["diversity", "density"], embeddings=e,
                                embedding_source="e.vec", created_at="t") for e in (exact, extra)]
        assert reps[0].measurements["vendi_score"]["flags"] == []
        assert serialize_report(reps[0]) == serialize_report(reps[1])


class TestEntryProtocol:
    """_ReportBuilder.add is the one way an entry enters a report."""

    def test_a_pair_value_is_stored_whole(self):
        b = _ReportBuilder()
        b.add("pair", "u", {}, lambda: (1.0, ["x"]))
        assert b.measurements["pair"]["value"] == [1.0, ["x"]]
        assert b.measurements["pair"]["flags"] == []

    def test_fields_and_flags_of_a_library_result(self):
        class Result:
            a, b, flags = 1.0, math.nan, ("low-confidence",)

        b = _ReportBuilder()
        b.add("one", "u", {}, Result, fields=("a",))
        b.add("two", "u", {}, Result, fields=("a", "b"), flags=("extra",))
        assert b.measurements["one"]["value"] == 1.0
        assert b.measurements["one"]["flags"] == ["low-confidence"]
        assert b.measurements["two"]["value"] == {"a": 1.0, "b": None}
        assert b.measurements["two"]["flags"] == ["extra", "low-confidence", "undefined:b"]

    def test_flags_go_only_with_a_computed_value(self):
        b = _ReportBuilder()
        b.add("failed", "u", {}, lambda: 1 / 0, flags=("extra",))
        b.add("skipped", "u", {}, lambda: 1.0, skip="why", flags=("extra",))
        assert b.measurements["failed"]["flags"] == ["error:internal"]
        assert b.measurements["skipped"]["flags"] == ["skipped:why"]

    def test_one_record_redundancy_entropy_follows_the_singleton_convention(self):
        one = assemble_report(Corpus([Record(id="a", text="only one")]), ["quality"])
        entry = one.measurements["redundancy_entropy"]
        assert entry["value"] == 1.0 and entry["flags"] == ["singleton-convention"]
        two = assemble_report(Corpus([Record(id="a", text="x"), Record(id="b", text="x")]),
                              ["quality"])
        assert two.measurements["redundancy_entropy"]["flags"] == []


class TestSanitize:
    def test_nonfinite_list_items_flagged_by_sign(self):
        flags = []
        value = _sanitize([1.0, -math.inf, math.inf, math.nan], flags, ":xs")
        assert value == [1.0, None, None, None]
        assert sorted(flags) == ["infinite:xs", "negative-infinite:xs", "undefined:xs"]


class TestSerialization:
    def test_newline_terminated_sorted_json(self):
        text = serialize_report(handmade({"m": entry(1.5)}))
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)

    def test_round_trip_is_idempotent(self):
        rep = assemble_report(small_corpus(), METRIC_FAMILIES, created_at="t")
        s1 = serialize_report(rep)
        s2 = serialize_report(parse_report(io.StringIO(s1)))
        assert s1 == s2

    def test_twelve_digit_rounding(self):
        text = serialize_report(handmade({"m": entry(0.1 + 0.2)}))
        assert json.loads(text)["measurements"]["m"]["value"] == 0.3

    def test_unicode_preserved(self):
        text = serialize_report(handmade({"m": entry(1.0, params={"token": "café"})}))
        assert "café" in text

    def test_nonfinite_value_must_be_flag_encoded(self):
        with pytest.raises(ValueError, match="non-finite"):
            serialize_report(handmade({"m": entry(math.inf)}))

    def test_parse_from_path_stream_and_string(self, tmp_path):
        rep = handmade({"m": entry(2.0)})
        text = serialize_report(rep)
        p = tmp_path / "r.json"
        p.write_text(text, encoding="utf-8")
        for source in (str(p), io.StringIO(text)):
            parsed = parse_report(source)
            assert parsed.measurements["m"]["value"] == 2.0
            assert parsed.schema_version == SCHEMA_VERSION

    def test_parse_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_report(io.StringIO('{"schema_version": "1.0"}'))

    def test_parse_names_a_line_that_is_not_utf8(self, tmp_path):
        text = serialize_report(handmade({"m": entry(2.0, params={"token": "café"})}))
        line = text[:text.index("café")].count("\n") + 1
        p = tmp_path / "r.json"
        p.write_bytes(text.encode("utf-8").replace("é".encode("utf-8"), b"\xff"))
        with pytest.raises(ValueError, match=f"^line {line}: not valid UTF-8$"):
            parse_report(str(p))


class TestCompare:
    def test_identical_reports_all_zero_deltas(self):
        rep = assemble_report(small_corpus(), ["quality"], created_at="t")
        delta = compare(rep, rep)
        assert delta.n_incomparable == 0
        for e in delta.entries.values():
            assert e["comparable"]
            for d in e["deltas"].values():
                assert d["absolute"] == 0.0

    def test_absolute_and_relative_deltas(self):
        base = handmade({"m": entry(2.0)})
        cand = handmade({"m": entry(2.5)})
        d = compare(base, cand).entries["m"]["deltas"]["value"]
        assert d["absolute"] == pytest.approx(0.5)
        assert d["relative"] == pytest.approx(0.25)

    def test_zero_baseline_relative_is_null(self):
        base = handmade({"m": entry(0.0)})
        cand = handmade({"m": entry(3.0)})
        d = compare(base, cand).entries["m"]["deltas"]["value"]
        assert d["absolute"] == 3.0
        assert d["relative"] is None

    def test_dict_values_compare_shared_numeric_fields(self):
        base = handmade({"m": entry({"mean": 1.0, "count": 4, "name": "x", "ok": True})})
        cand = handmade({"m": entry({"mean": 2.0, "count": 6, "extra": 1.0})})
        deltas = compare(base, cand).entries["m"]["deltas"]
        assert set(deltas) == {"mean", "count"}
        assert deltas["count"]["absolute"] == 2.0

    def test_missing_entries(self):
        base = handmade({"only_base": entry(1.0)})
        cand = handmade({"only_cand": entry(1.0)})
        delta = compare(base, cand)
        assert delta.entries["only_base"]["reason"] == "missing-in-candidate"
        assert delta.entries["only_cand"]["reason"] == "missing-in-baseline"
        assert delta.n_comparable == 0
        assert delta.n_incomparable == 2

    def test_differing_params_incomparable(self):
        base = handmade({"m": entry(1.0, params={"k": 5})})
        cand = handmade({"m": entry(1.0, params={"k": 7})})
        assert compare(base, cand).entries["m"]["reason"] == "params-differ"

    def test_tokenizer_mismatch_shows_up_as_params_differ(self):
        c1 = small_corpus()
        c2 = Corpus([Record(id=r.id, text=r.text, timestamp=r.timestamp) for r in c1.records],
                    tokenizer_config=TokenizerConfig(mode="character"))
        r1 = assemble_report(c1, ["diversity"], created_at="t")
        r2 = assemble_report(c2, ["diversity"], created_at="t")
        delta = compare(r1, r2)
        assert delta.entries["token_entropy"]["reason"] == "params-differ"

    def test_flagged_values_incomparable(self):
        for flags in (["undefined"], ["infinite"], ["error:argument"], ["skipped:no-embeddings"]):
            base = handmade({"m": entry(None, flags=flags)})
            cand = handmade({"m": entry(1.0)})
            assert compare(base, cand).entries["m"]["reason"] == "value-flagged"

    def test_informational_flags_do_not_block(self):
        base = handmade({"m": entry(1.0, flags=["low-confidence"])})
        cand = handmade({"m": entry(2.0, flags=["alpha-boundary"])})
        assert compare(base, cand).entries["m"]["comparable"]

    def test_non_numeric_values(self):
        base = handmade({"m": entry("abc")})
        cand = handmade({"m": entry("xyz")})
        assert compare(base, cand).entries["m"]["reason"] == "no-numeric-values"

    def test_schema_major_mismatch_fatal(self):
        base = handmade({}, version="1.0")
        cand = handmade({}, version="2.0")
        with pytest.raises(ValueError, match=r"'1\.0'.*'2\.0'"):
            compare(base, cand)

    def test_schema_minor_mismatch_allowed(self):
        base = handmade({"m": entry(1.0)}, version="1.0")
        cand = handmade({"m": entry(1.0)}, version="1.3")
        assert compare(base, cand).n_comparable == 1

    def test_counts_partition_names(self):
        base = handmade({"a": entry(1.0), "b": entry(1.0, params={"x": 1}), "c": entry(2.0)})
        cand = handmade({"a": entry(2.0), "b": entry(1.0, params={"x": 2}), "d": entry(2.0)})
        delta = compare(base, cand)
        assert delta.n_comparable + delta.n_incomparable == len(delta.entries) == 4

    def test_serialize_delta_round_trips_as_json(self):
        base = handmade({"m": entry(1.0)})
        cand = handmade({"m": entry(4.0)})
        text = serialize_delta(compare(base, cand))
        obj = json.loads(text)
        assert obj["entries"]["m"]["deltas"]["value"]["absolute"] == 3.0
        assert text.endswith("\n")


class TestDeltaTable:
    def test_table_contains_rows_and_summary(self):
        base = handmade({"m": entry(2.0), "gone": entry(1.0)})
        cand = handmade({"m": entry(3.0)})
        table = format_delta_table(compare(base, cand))
        lines = table.splitlines()
        assert lines[0].startswith("measurement")
        assert any("incomparable (missing-in-candidate)" in ln for ln in lines)
        assert any("+1" in ln and "m" in ln for ln in lines)
        assert lines[-1] == "comparable: 1  incomparable: 1"

    def test_columns_align(self):
        base = handmade({"long_measurement_name": entry(1.0), "m": entry(1.0)})
        table = format_delta_table(compare(base, base))
        rows = [ln for ln in table.splitlines()[:-1] if ln]
        starts = {ln.index("value") for ln in rows if "value" in ln}
        assert len(starts) == 1


class TestNonFiniteDeltas:
    """A delta that overflows is reported, never serialized as a non-finite float."""

    def test_subnormal_baseline_gives_null_relative_delta(self, tmp_path):
        from dmeter.cli import main

        dims = {"volume_mode": "bounding-box", "embedding_source": "e"}
        base = handmade({"data_density": entry(
            {"density": 5e-324, "log_density": -744.44, "degenerate_dims": []}, params=dims)})
        cand = handmade({"data_density": entry(
            {"density": 1.0, "log_density": 0.0, "degenerate_dims": []}, params=dims)})
        e = compare(base, cand).entries["data_density"]
        assert e["comparable"]
        assert e["deltas"]["density"] == {"absolute": 1.0 - 5e-324, "relative": None}
        assert e["deltas"]["log_density"]["relative"] == pytest.approx(1.0)
        rows = [ln.split() for ln in format_delta_table(compare(base, cand)).splitlines()]
        assert ["data_density", "density", "+1", "-", "ok"] in rows

        paths = []
        for name, rep in (("a.json", base), ("b.json", cand)):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(serialize_report(rep))
        out = tmp_path / "d.json"
        assert main(["compare", *paths, "--out", str(out)]) == 0
        written = json.loads(out.read_text(encoding="utf-8"))
        assert written["entries"]["data_density"]["deltas"]["density"]["relative"] is None

    @pytest.mark.parametrize("b, c", [(1e308, -1e308), (-1e308, 1e308)])
    def test_overflowing_absolute_delta_is_incomparable(self, b, c):
        base = handmade({"m": entry({"x": b, "y": 1.0}), "ok": entry(1.0)})
        cand = handmade({"m": entry({"x": c, "y": 2.0}), "ok": entry(2.0)})
        delta = compare(base, cand)
        assert delta.entries["m"] == {"comparable": False, "reason": "non-finite-delta",
                                      "deltas": {}}
        assert (delta.n_comparable, delta.n_incomparable) == (1, 1)
        obj = json.loads(serialize_delta(delta))
        assert obj["entries"]["m"]["reason"] == "non-finite-delta"
        assert "incomparable (non-finite-delta)" in format_delta_table(delta)

    @pytest.mark.parametrize("big", [10**400, -10**400], ids=["positive", "negative"])
    def test_int_past_the_float_range_is_incomparable(self, big, tmp_path, capsys):
        from dmeter.cli import main

        rep = handmade({"m": entry({"x": big, "y": 1.0}), "ok": entry(1.0)})
        delta = compare(rep, rep)
        assert delta.entries["m"] == {"comparable": False, "reason": "non-finite-delta",
                                      "deltas": {}}
        assert (delta.n_comparable, delta.n_incomparable) == (1, 1)
        path = tmp_path / "big.json"
        path.write_text(serialize_report(rep), encoding="utf-8")
        assert main(["compare", str(path), str(path)]) == 0
        assert "incomparable (non-finite-delta)" in capsys.readouterr().out


# --- compare against the per-reason branches it replaced ------------------------


def parent_numeric_fields(value) -> dict:
    """report._numeric_fields as it was before scalars and dicts shared one
    filter, kept as an oracle."""
    if isinstance(value, bool):
        return {}
    if isinstance(value, (int, float)):
        return {"value": float(value)}
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if isinstance(v, bool):
                continue
            if isinstance(v, (int, float)):
                out[k] = float(v)
        return out
    return {}


def parent_compare(baseline, candidate):
    """report.compare as it was before each entry's reason was decided once,
    kept as an oracle (the schema-version check is unchanged and left out)."""
    entries: dict = {}
    n_comparable = 0
    names = sorted(set(baseline.measurements) | set(candidate.measurements))
    for name in names:
        b_entry = baseline.measurements.get(name)
        c_entry = candidate.measurements.get(name)
        if b_entry is None or c_entry is None:
            reason = "missing-in-baseline" if b_entry is None else "missing-in-candidate"
            entries[name] = {"comparable": False, "reason": reason, "deltas": {}}
            continue
        if b_entry.get("params") != c_entry.get("params"):
            entries[name] = {"comparable": False, "reason": "params-differ", "deltas": {}}
            continue
        if any(is_blocking(f) for e in (b_entry, c_entry) for f in e.get("flags", ())):
            entries[name] = {"comparable": False, "reason": "value-flagged", "deltas": {}}
            continue
        b_fields = parent_numeric_fields(b_entry.get("value"))
        c_fields = parent_numeric_fields(c_entry.get("value"))
        shared = sorted(set(b_fields) & set(c_fields))
        if not shared:
            entries[name] = {"comparable": False, "reason": "no-numeric-values", "deltas": {}}
            continue
        deltas = {}
        for fname in shared:
            absolute = c_fields[fname] - b_fields[fname]
            relative = absolute / abs(b_fields[fname]) if b_fields[fname] != 0 else math.inf
            deltas[fname] = {"absolute": absolute,
                             "relative": relative if math.isfinite(relative) else None}
        if not all(math.isfinite(d["absolute"]) for d in deltas.values()):
            entries[name] = {"comparable": False, "reason": "non-finite-delta", "deltas": {}}
            continue
        entries[name] = {"comparable": True, "reason": None, "deltas": deltas}
        n_comparable += 1
    return BatchDelta(
        baseline_ref=baseline.corpus_fingerprint,
        candidate_ref=candidate.corpus_fingerprint,
        schema_version=baseline.schema_version,
        entries=entries,
        n_comparable=n_comparable,
        n_incomparable=len(names) - n_comparable,
    )


def test_measure_builds_no_tuple_keyed_ngram_table(monkeypatch):
    import dmeter.corpus
    import dmeter.tendency

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple-keyed n-gram table was built")

    monkeypatch.setattr(dmeter.corpus, "ngrams", refuse)
    monkeypatch.setattr(dmeter.tendency, "train_lm", refuse)
    rep = assemble_report(small_corpus(), ["tendency", "diversity"], config={"lm_order": 2})
    assert not [name for name, e in rep.measurements.items()
                if any(f.startswith("error:") for f in e["flags"])]
    assert rep.measurements["perplexity_self"]["flags"] == []
    assert rep.measurements["ngram_diversity_2"]["flags"] == []


_numbers = st.sampled_from([0, 1, -3, 0.0, -0.0, 2.5, 5e-324, 1e308, -1e308, 1.7976931348623157e308,
                            math.inf, -math.inf, math.nan, True, False]) | st.floats()
_values = (_numbers | st.none() | st.text(max_size=2) | st.lists(_numbers, max_size=2)
           | st.dictionaries(st.sampled_from(["value", "mean", "n"]),
                             _numbers | st.none() | st.lists(_numbers, max_size=1), max_size=3))
_entries = st.builds(entry, _values, params=st.sampled_from([None, {"k": 1}, {"k": 2}]),
                     flags=st.lists(st.sampled_from(["undefined", "undefined:mean", "infinite",
                                                     "low-confidence", "error:argument",
                                                     "skipped:no-embeddings"]),
                                    max_size=2, unique=True))
_measurements = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), _entries, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_measurements, _measurements)
def test_compare_matches_the_per_reason_oracle(base, cand):
    got = compare(handmade(base), handmade(cand, fingerprint="c" * 16))
    want = parent_compare(handmade(base), handmade(cand, fingerprint="c" * 16))
    # repr also tells -0.0 from 0.0 and keeps the entry order the delta table prints.
    assert repr(got) == repr(want)
    for value in (*base.values(), *cand.values()):
        assert repr(_numeric_fields(value["value"])) == repr(parent_numeric_fields(value["value"]))


@pytest.mark.parametrize("knn_k", [True, 2.0, 10.0])
def test_knn_k_that_is_not_an_int_is_an_argument_error(knn_k):
    c = small_corpus()
    rep = assemble_report(c, ["density"], config={"knn_k": knn_k}, embeddings=embeddings_for(c))
    entry = rep.measurements["knn_density"]
    assert entry["flags"] == ["error:argument"] and entry["value"] is None
    assert entry["note"] == f"k must be an integer, got {knn_k!r}"
