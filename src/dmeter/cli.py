"""Command-line interface: measure, compare, assoc, dedup.

Standard output carries human-readable summaries; files named by --out carry
machine-readable JSON and are written first, so a reader that closes standard
output early still finds them whole.  Flags override config-file values.
Each cmd_* only computes; main alone reports a fatal error and writes --out
and standard output.
Exit codes: 0 success, 1 fatal (bad arguments, unreadable input, a malformed
config file or report, unknown metric, an unwritable --out file), 2 when the
report was written but contains per-metric error or skipped entries.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

from . import association, quality, report
from .corpus import DEFAULT_TOKENIZER, FORMATS, TokenizerConfig, ingest, read_lines, tokenize
from .report import DEFAULT_CONFIG, METRIC_FAMILIES, canonical_json, is_blocking
from .vectors import load_embeddings


def _logger():
    """The "dmeter" logger; unless it has handlers already, one is added that
    writes each bare message to sys.stderr as it is at that moment."""
    import logging  # deferred: only a run with something to report pays for the import

    log = logging.getLogger("dmeter")
    if not log.handlers:
        class StderrHandler(logging.StreamHandler):
            stream = property(lambda self: sys.stderr, lambda self, _: None)

        log.addHandler(StderrHandler())
    return log


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _config_file_error(exc: configparser.Error) -> str:
    """exc on one line: the file line, section and key it carries, then what is wrong."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} is not under a [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: neither a [section] header nor 'key = value'"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: [{exc.section}] config key {exc.option!r} is set twice"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] appears twice"
    # Otherwise an InterpolationError, the one kind that reading a value raises.
    return f"[{exc.section}] config key {exc.option!r}: {exc.message}"


def _load_config(path: str | None) -> dict:
    """Each _SECTIONS section as _config_section reads it from the INI file at path.

    The file is read as a side file is (see read_lines), and a malformed one
    is one ValueError that names it.
    """
    cfg = configparser.ConfigParser()
    try:
        if path:
            cfg.read_file(_read_side_file(lambda p: [line for _, line in read_lines(p)], path))
        return {section: _config_section(cfg, section, defaults)
                for section, defaults in _SECTIONS.items()}
    except OSError:
        raise OSError(f"cannot read config file {path!r}") from None
    except configparser.Error as exc:
        raise ValueError(f"{path}: {_config_file_error(exc)}") from None


def _tokenizer_from(args, settings) -> TokenizerConfig:
    """The --tokenizer flag, else the [tokenizer] section.

    Flag syntax: a mode name, optionally suffixed ':nofold' to keep case.
    """
    spec = args.tokenizer
    if spec:
        return TokenizerConfig(spec.removesuffix(":nofold"), not spec.endswith(":nofold"))
    return TokenizerConfig(**settings["tokenizer"])


def _ingest_from(args, settings, tokenizer: TokenizerConfig):
    if not args.input:
        raise ValueError("--input is required")
    fmt = args.format or settings["measure"]["format"]
    corpus = ingest(args.input, format=fmt, tokenizer_config=tokenizer)
    for err in corpus.ingest_errors:
        _logger().warning("ingest: skipped line %d: %s", err.line, err.reason)
    return corpus


_SECTIONS = {
    "tokenizer": DEFAULT_TOKENIZER.as_dict(),
    "measure": {**DEFAULT_CONFIG, "metrics": "", "format": "jsonl", "out": "report.json"},
    "assoc": {"topk": 20, "smoothing": 0.0, "context_mode": "document", "window_size": 0},
    "dedup": {"normalization": "exact", "top_cap": 10},
}


def _config_section(cfg, section: str, defaults: dict) -> dict:
    """A copy of defaults with each key that one INI section sets, typed like
    its default (None: str; a bool is read with getboolean).

    A key outside defaults is fatal unless the section inherits it from [DEFAULT].
    """
    out = dict(defaults)
    if not cfg.has_section(section):
        return out
    for key, raw in cfg.items(section):
        if key in cfg.defaults() and key not in defaults:
            continue
        if key not in defaults:
            raise ValueError(
                f"unknown [{section}] config key {key!r}; valid keys: {sorted(defaults)}"
            )
        default = defaults[key]
        try:
            if isinstance(default, bool):
                value = out[key] = cfg.getboolean(section, key)
            else:
                value = out[key] = raw if default is None else type(default)(raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] config key {key!r}: {exc}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"[{section}] config key {key!r} must be finite, got {raw!r}")
    return out


def _measure_config(cfg) -> dict:
    measure = _config_section(cfg, "measure", _SECTIONS["measure"])
    return {key: measure[key] for key in DEFAULT_CONFIG}


def _entry_summary(name: str, entry: dict) -> str:
    flags = entry.get("flags", [])
    blocked = [f for f in flags if is_blocking(f)]
    if blocked:
        note = entry.get("note")
        detail = f" ({note})" if note else ""
        return f"{name}: {', '.join(blocked)}{detail}"
    value = entry.get("value")
    if isinstance(value, dict):
        parts = [
            f"{k}={v:.6g}"
            for k, v in list(value.items())[:4]
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        body = " ".join(parts) if parts else "(structured)"
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        body = f"{value:.6g}"
    else:
        body = str(value)
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    return f"{name}: {body}{suffix}"


def cmd_measure(args):
    """Exit status, the --out file as (path, text, what it holds) or None, and
    standard output, as every cmd_* returns them; a fatal error is raised."""
    settings = _load_config(args.config)
    measure = settings["measure"]
    metrics_raw = args.metrics or measure["metrics"] or ",".join(METRIC_FAMILIES)
    metrics = report.select_metrics(m.strip() for m in metrics_raw.split(",") if m.strip())

    corpus = _ingest_from(args, settings, _tokenizer_from(args, settings))

    embeddings = _read_side_file(load_embeddings, args.embeddings) if args.embeddings else None
    rep = report.assemble_report(corpus, metrics, config={k: measure[k] for k in DEFAULT_CONFIG},
                                 embeddings=embeddings, embedding_source=args.embeddings)
    out_path = args.out or measure["out"]
    out = (out_path, report.serialize_report(rep), "report")

    lines = [_entry_summary(name, entry) for name, entry in rep.measurements.items()]
    lines.append(f"report written to {out_path}")

    # Exit code 2 means a metric could not be computed; an undefined or
    # infinite value is still a result, so it does not count here.
    failed = any(f.startswith(report.BLOCKING_FLAG_PREFIXES)
                 for entry in rep.measurements.values() for f in entry.get("flags", []))
    return 2 if failed else 0, out, _text(lines)


def _read_report(path: str) -> report.MeasurementReport:
    try:
        return report.parse_report(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot parse report {path!r}: {exc}") from None


def cmd_compare(args):
    delta = report.compare(*(_read_report(path) for path in (args.baseline, args.candidate)))
    out = (args.out, report.serialize_delta(delta), "delta") if args.out else None
    return 0, out, report.format_delta_table(delta)


def _read_targets(path: str, tokenizer: TokenizerConfig) -> list[str]:
    targets = []
    for _, line in read_lines(path):
        term = line.strip()
        if not term or term.startswith("#"):
            continue
        toks = tokenize(term, tokenizer)
        targets.append(toks[0] if len(toks) == 1 else term)
    if not targets:
        raise ValueError("contains no terms")
    return targets


def _read_side_file(read, path: str, *args):
    """read(path, *args), with the path put before a ValueError's message."""
    try:
        return read(path, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_assoc(args):
    settings = _load_config(args.config)
    if not args.targets:
        raise ValueError("--targets is required")
    tokenizer = _tokenizer_from(args, settings)
    targets = _read_side_file(_read_targets, args.targets, tokenizer)
    corpus = _ingest_from(args, settings, tokenizer)

    opts = settings["assoc"]
    table = association.build_cooccurrence(
        corpus, targets=targets, context_mode=opts["context_mode"],
        window_size=opts["window_size"] or None,
    )
    rows = []
    for target in targets:
        co = association.top_npmi(table, target, k=opts["topk"], smoothing=opts["smoothing"])
        flags = [] if target in table.term_counts else ["warning:target-absent"]
        rows.append({"target": target, "flags": flags,
                     "co_terms": [{"term": t, "npmi": v, "pair_count": c} for t, v, c in co]})

    out = None
    if args.out:
        payload = {
            "corpus_fingerprint": corpus.fingerprint,
            "context_mode": opts["context_mode"],
            "smoothing": opts["smoothing"],
            "targets": rows,
        }
        out = (args.out, canonical_json(payload), "association table")

    lines = []
    for row in rows:
        header = row["target"]
        if row["flags"]:
            header += f"  [{', '.join(row['flags'])}]"
        lines.append(header)
        if not row["co_terms"]:
            lines.append("  (no co-terms)")
        for co in row["co_terms"]:
            lines.append(f"  {co['term']}  npmi={co['npmi']:+.4f}  contexts={co['pair_count']}")
    return 0, out, _text(lines)


def cmd_dedup(args):
    settings = _load_config(args.config)
    corpus = _ingest_from(args, settings, _tokenizer_from(args, settings))
    opts = settings["dedup"]
    rep = quality.find_duplicates(corpus, opts["normalization"], opts["top_cap"])
    entropy = quality.redundancy_entropy(rep)

    out = None
    if args.out:
        payload = {
            "corpus_fingerprint": corpus.fingerprint,
            "normalization": rep.normalization,
            "n_records": rep.n_records,
            "n_distinct": rep.n_distinct,
            "duplicate_clusters": rep.duplicate_clusters,
            "excess_duplicates": rep.excess_duplicates,
            "redundancy_entropy": entropy,
            "top_clusters": [{"fingerprint": fp, "count": count, "sample": sample}
                             for fp, count, sample in rep.top_clusters],
        }
        out = (args.out, canonical_json(payload), "dedup report")

    lines = [
        f"records: {rep.n_records}",
        f"distinct: {rep.n_distinct}",
        f"duplicate clusters: {rep.duplicate_clusters}",
        f"excess duplicates: {rep.excess_duplicates}",
        f"redundancy entropy: {entropy:.6g}",
    ]
    for fp, count, sample in rep.top_clusters:
        snippet = sample if len(sample) <= 60 else sample[:57] + "..."
        lines.append(f"  x{count}  {fp[:12]}  {snippet!r}")
    return 0, out, _text(lines)


def _add_common_flags(parser, *, embeddings=False, targets=False, metrics=False):
    parser.add_argument("--input", help="input corpus path")
    parser.add_argument("--format", choices=FORMATS, help="input format (default jsonl)")
    parser.add_argument("--tokenizer",
                        help="tokenizer mode: unicode-word | whitespace | character, "
                             "append ':nofold' to keep case")
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--out", help="output file path")
    if metrics:
        parser.add_argument("--metrics",
                            help=f"comma-separated families: {', '.join(METRIC_FAMILIES)}")
    if embeddings:
        parser.add_argument("--embeddings", help="embedding matrix file (text-vec format)")
    if targets:
        parser.add_argument("--targets", help="target-terms file, one per line, # comments")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmeter",
        description="Corpus measurement engine: measure, compare, assoc, dedup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute a measurement report over a corpus")
    _add_common_flags(p_measure, embeddings=True, metrics=True)
    p_measure.set_defaults(func=cmd_measure)

    p_compare = sub.add_parser("compare", help="delta table between two measurement reports")
    p_compare.add_argument("baseline", help="baseline report JSON")
    p_compare.add_argument("candidate", help="candidate report JSON")
    p_compare.add_argument("--out", help="write the delta as JSON here")
    p_compare.set_defaults(func=cmd_compare)

    p_assoc = sub.add_parser("assoc", help="top co-terms by nPMI for target terms")
    _add_common_flags(p_assoc, targets=True)
    p_assoc.set_defaults(func=cmd_assoc)

    p_dedup = sub.add_parser("dedup", help="duplicate-cluster report over a corpus")
    _add_common_flags(p_dedup)
    p_dedup.set_defaults(func=cmd_dedup)

    return parser


def main(argv=None) -> int:
    """Run one command and end it: a fatal error is one `error:` message and
    exit 1; otherwise the --out file is written first, then standard output."""
    args = build_parser().parse_args(argv)
    try:
        status, out, text = args.func(args)
        if out:
            path, body, what = out
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(body)
            except OSError as exc:
                raise OSError(f"cannot write {what} to {path!r}: {exc}") from None
    except (OSError, ValueError) as exc:
        _logger().error("error: %s", exc)
        return 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early (dmeter ... | head).  As the
        # Python signal module's docs advise, point it at devnull, so that the
        # flush at exit does not raise again; the command's status stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
