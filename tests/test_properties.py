"""Property tests for the report format: the canonical-JSON writer, the
non-finite encoding and the blocking-flag rule that decides comparability."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.report import (
    SCHEMA_VERSION,
    MeasurementReport,
    _ReportBuilder,
    _sanitize,
    compare,
    is_blocking,
    parse_report,
    serialize_report,
)

BLOCKING = ("error:internal", "error:argument", "skipped:no-embeddings",
            "infinite", "negative-infinite", "undefined")
INFORMATIONAL = ("low-confidence", "alpha-boundary", "singleton-convention",
                 "partial-coverage", "undefined:variance", "infinite:std",
                 "negative-infinite:min")

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalar = st.one_of(st.none(), st.booleans(), st.integers(), any_float, text)
nested = st.recursive(
    scalar,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=12,
)
# Report values as measurements return them: scalars, flat dicts and lists.
measured = st.one_of(
    st.one_of(st.none(), st.integers(), any_float),
    st.dictionaries(text, st.one_of(st.none(), st.integers(), any_float), max_size=4),
    st.lists(st.one_of(st.integers(), any_float), max_size=4),
)
numeric = st.one_of(st.integers(-10**12, 10**12), finite)
comparable_value = st.one_of(
    numeric,
    st.dictionaries(text, numeric, min_size=1, max_size=4),
)
flag_sets = st.lists(st.sampled_from(BLOCKING + INFORMATIONAL), max_size=3, unique=True)


def _report(measurements):
    return MeasurementReport(
        schema_version=SCHEMA_VERSION,
        corpus_fingerprint="f" * 64,
        tokenizer_config={"mode": "unicode-word", "case_fold": True},
        created_at="2026-01-01T00:00:00Z",
        measurements=measurements,
    )


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _non_finite(v):
    return isinstance(v, float) and not math.isfinite(v)


@settings(deadline=None)
@given(nested)
def test_sanitize_leaves_no_non_finite_float(value):
    flags = []
    out = _sanitize(value, flags)
    assert not any(map(_non_finite, _leaves(out)))
    assert len(flags) == sum(v is None or _non_finite(v) for v in _leaves(value))


@settings(deadline=None)
@given(st.dictionaries(text, measured, max_size=5))
def test_serialize_parse_serialize_is_byte_identical(values):
    builder = _ReportBuilder()
    for name, value in values.items():
        builder.add(name, "u", {"name": name}, lambda value=value: value)
    first = serialize_report(_report(builder.measurements))
    assert serialize_report(parse_report(first)) == first


@settings(deadline=None)
@given(st.dictionaries(text, st.tuples(comparable_value, flag_sets), max_size=6))
def test_self_compare_is_zero_except_blocked_entries(entries):
    rep = _report({
        name: {"value": value, "unit": "u", "params": {}, "flags": sorted(flags),
               "provenance": "self-contained"}
        for name, (value, flags) in entries.items()
    })
    delta = compare(rep, rep)
    blocked = {name for name, (_, flags) in entries.items() if any(map(is_blocking, flags))}
    incomparable = {name for name, e in delta.entries.items() if not e["comparable"]}
    assert incomparable == blocked
    assert delta.n_incomparable == len(blocked)
    for entry in delta.entries.values():
        if entry["comparable"]:
            for d in entry["deltas"].values():
                assert d["absolute"] == 0.0
                assert d["relative"] in (0.0, None)
        else:
            assert entry["reason"] == "value-flagged"


def test_blocking_rule_on_known_flags():
    assert all(is_blocking(f) for f in BLOCKING)
    assert not any(is_blocking(f) for f in INFORMATIONAL)
