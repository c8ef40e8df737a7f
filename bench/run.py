"""Seeded end-to-end and per-layer benchmark of dmeter.

    python3 bench/run.py --workload text-zipf --seed 1 --seconds 36 --trace 0

Generates the workload's inputs from the seed (bench/generate.py), runs
dmeter on them as a user would, each operation in a fresh interpreter, one
process at a time, with BLAS threads pinned.  It repeats the workload's pass
while the next pass fits in --seconds, checks every output against the
generator's known answers, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s (fresh interpreter until
`import dmeter.cli` returns, median), work_ref (one pass of the workload's
operations after import, in units of a fixed reference timed while they run,
median over passes; see bench/reference.py) and peak_rss_mb (highest
ru_maxrss of any process).  The raw seconds of each pass are printed as a
detail line.  --trace 1 reports the per-layer metrics from a
traced run (bench/layers.py); peak allocations come from an extra untimed
pass under tracemalloc.

Failed operations are counted against attempted ones: an `error:*` report
entry, a command exit code other than 0 and 2, and an exception from a
library call.  `skipped:*` entries, `undefined*` flags and exit code 2 are
designed outcomes and count as attempted only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from spans import self_times  # noqa: E402

SOURCE_DATE_EPOCH = "1700000000"
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "work_ref": "ref", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts one child process at a time and tallies attempted and failed
    operations."""

    def __init__(self, workdir: Path, trace: bool, started: float):
        self.workdir = workdir
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.setup_samples: list[float] = []
        self.maxrss_mb = 0.0
        self.outputs: dict[str, dict] = {}  # pass tag -> label -> child result
        self._started = started
        self._env = child_env()
        self._n = 0

    def run(self, op: str, trace: bool | None = None, peaks: bool = False,
            count_setup: bool = True, **spec) -> dict | None:
        """Runs one child; its result, or None when the process failed."""
        self._n += 1
        spec.update(op=op, trace=self.trace if trace is None else trace, peaks=peaks,
                    result=str(self.workdir / f"result-{self._n}.json"))
        spec_path = self.workdir / f"spec-{self._n}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = RUN_LIMIT_S - (time.monotonic() - self._started)
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned)],
            cwd=ROOT, env=self._env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout, check=False,
        )
        if proc.returncode != 0:
            self.count(1, 1)
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            print(f"{op} {spec.get('argv', '')}: process exited {proc.returncode}: "
                  + " | ".join(tail), file=sys.stderr)
            return None
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if count_setup:
            self.setup_samples.append(result["setup_s"])
        self.maxrss_mb = max(self.maxrss_mb, result["maxrss_mb"])
        if op == "cli":
            self.count(1, int(result["exit_code"] not in (0, 2)))
        elif "attempted" in result:
            self.count(result["attempted"], result["failed"])
            for error in result["errors"][:5]:
                print(f"{op}: {error}", file=sys.stderr)
        return result

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(got, want, tol=1e-9) -> bool:
    return _number(got) and math.isclose(got, want, rel_tol=tol, abs_tol=tol)


class Checker:
    """Collects failed output checks, each naming the workload and metric."""

    def __init__(self, workload: str):
        self.workload = workload
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str, got, want) -> None:
        if not ok:
            self.problems.append(f"{self.workload}: {what} = {got!r}, expected {want}")

    def equal(self, what: str, got, want) -> None:
        self.expect(got == want, what, got, want)

    def close(self, what: str, got, want, tol=1e-9) -> None:
        self.expect(_close(got, want, tol), what, got, f"{want!r} within {tol:g}")


def _load(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _report(runner: Runner, check: Checker, path: Path, label: str) -> dict:
    """The measurements of a written report; counts its entries as operations
    and its error:* entries as failed ones."""
    report = _load(path)
    if report is None:
        check.problems.append(f"{check.workload}: {label} report {path.name} missing or unreadable")
        return {}
    entries = report["measurements"]
    errors = [name for name, e in entries.items()
              if any(f.startswith("error:") for f in e["flags"])]
    runner.count(len(entries), len(errors))
    for name in errors:
        print(f"{check.workload}: {label} {name} failed: {entries[name].get('note')}",
              file=sys.stderr)
    return entries


def _value(entries: dict, name: str, field: str | None = None):
    value = entries.get(name, {}).get("value")
    if field is not None:
        value = value.get(field) if isinstance(value, dict) else None
    return value


class Workload:
    """Generated inputs, the operations of one pass and the output checks."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.manifest = generate.GENERATORS[self.name](workdir, seed)

    def pass_ops(self, tag: str) -> list[tuple[str, str, dict]]:
        """(label, op, spec) for each operation of one pass."""
        raise NotImplementedError

    def check(self, runner: Runner, tags: list[str], checker: Checker) -> None:
        """Runs the check-only operations and checks every output."""
        raise NotImplementedError

    def _same_reports(self, runner: Runner, tags: list[str], argv, check: Checker) -> None:
        """The pass reports are byte-identical.  With a single pass, or traced
        passes, one more untraced measure joins the comparison."""
        paths = [self.dir / f"report-{t}.json" for t in tags]
        if len(tags) < 2 or runner.trace:
            extra = self.dir / "report-extra.json"
            runner.run("cli", trace=False, argv=argv + ["--out", str(extra)])
            _report(runner, check, extra, "extra measure")
            paths.append(extra)
        blobs = {p.read_bytes() if p.exists() else None for p in paths}
        check.expect(len(blobs) == 1, f"measure report bytes across {len(paths)} runs",
                     f"{len(blobs)} distinct", "1")


class TextZipf(Workload):
    name = "text-zipf"

    def _measure_argv(self):
        return ["measure", "--input", str(self.dir / "batch_a.jsonl"),
                "--metrics", "tendency,diversity,quality",
                "--config", str(self.dir / "settings.ini")]

    def pass_ops(self, tag):
        d, corpus = self.dir, str(self.dir / "batch_a.jsonl")
        report = str(d / f"report-{tag}.json")
        return [
            ("measure", "cli", {"argv": self._measure_argv() + ["--out", report]}),
            ("assoc", "cli", {"argv": ["assoc", "--input", corpus,
                                       "--targets", str(d / "targets.txt"),
                                       "--out", str(d / f"assoc-{tag}.json")]}),
            ("dedup", "cli", {"argv": ["dedup", "--input", corpus,
                                       "--config", str(d / "settings.ini"),
                                       "--out", str(d / f"dedup-{tag}.json")]}),
            ("compare", "cli", {"argv": ["compare", report, report,
                                         "--out", str(d / f"delta-{tag}.json")]}),
        ]

    def check(self, runner, tags, c):
        m, d = self.manifest, self.dir
        for tag in tags:
            entries = _report(runner, c, d / f"report-{tag}.json", "measure")
            c.equal("duplicates_exact.n_records",
                    _value(entries, "duplicates_exact", "n_records"), m["n_records"])
            c.equal("duplicates_exact.excess_duplicates",
                    _value(entries, "duplicates_exact", "excess_duplicates"), m["excess_exact"])
            c.equal("duplicates_normalized.excess_duplicates",
                    _value(entries, "duplicates_normalized", "excess_duplicates"),
                    m["excess_normalized"])
            c.close("record_length_tokens.mean",
                    _value(entries, "record_length_tokens", "mean"), m["mean_length_a"])
            for name in ("record_length_tokens", "flesch_reading_ease"):
                flags = entries.get(name, {}).get("flags")
                c.equal(f"{name}.flags", flags, [])

            dedup = _load(d / f"dedup-{tag}.json") or {}
            c.equal("dedup.n_records", dedup.get("n_records"), m["n_records"])
            c.equal("dedup.excess_duplicates", dedup.get("excess_duplicates"),
                    m["excess_normalized"])

            assoc = _load(d / f"assoc-{tag}.json") or {}
            rows = assoc.get("targets", [])
            c.equal("assoc.targets", [r["target"] for r in rows], m["targets"])
            for row in rows:
                npmis = [co["npmi"] for co in row["co_terms"]]
                c.expect(bool(npmis) and not row["flags"], f"assoc.{row['target']}.co_terms",
                         f"{len(npmis)} rows, flags {row['flags']}", "co-terms and no flags")
                c.expect(all(-1.0 <= v <= 1.0 for v in npmis), f"assoc.{row['target']}.npmi",
                         [v for v in npmis if not -1.0 <= v <= 1.0], "values in [-1, 1]")

            delta = _load(d / f"delta-{tag}.json") or {}
            nonzero = [(name, f) for name, e in delta.get("entries", {}).items()
                       for f, v in e["deltas"].items() if v["absolute"] != 0]
            c.expect(delta.get("n_comparable", 0) > 0 and not nonzero,
                     "compare(A, A) deltas", nonzero or delta.get("n_comparable"),
                     "all zero over at least one comparable entry")

        self._same_reports(runner, tags, self._measure_argv(), c)

        report_b, delta_ab = d / "report-b.json", d / "delta-ab.json"
        runner.run("cli", argv=["measure", "--input", str(d / "batch_b.jsonl"),
                                "--metrics", "tendency", "--out", str(report_b)])
        _report(runner, c, report_b, "batch B")
        runner.run("cli", argv=["compare", str(d / f"report-{tags[0]}.json"), str(report_b),
                                "--out", str(delta_ab)])
        entry = ((_load(delta_ab) or {}).get("entries") or {}).get("record_length_tokens", {})
        got = (entry.get("deltas") or {}).get("mean", {}).get("absolute")
        c.close("compare(A, B) record_length_tokens.mean delta", got,
                m["mean_length_b"] - m["mean_length_a"], 1e-8)


class EmbedGauss(Workload):
    name = "embed-gauss"

    def _measure_argv(self):
        return ["measure", "--input", str(self.dir / "corpus.jsonl"),
                "--metrics", "diversity,density", "--embeddings", str(self.dir / "vectors.txt")]

    def pass_ops(self, tag):
        report = str(self.dir / f"report-{tag}.json")
        return [("measure", "cli", {"argv": self._measure_argv() + ["--out", report]})]

    def check(self, runner, tags, c):
        m = self.manifest
        for tag in tags:
            entries = _report(runner, c, self.dir / f"report-{tag}.json", "measure")
            vendi = _value(entries, "vendi_score")
            c.expect(_number(vendi) and 1.0 <= vendi <= m["n_records"], "vendi_score",
                     vendi, f"a value in [1, {m['n_records']}]")
            c.equal("knn_density.k_used", _value(entries, "knn_density", "k_used"), 5)
            knn = _value(entries, "knn_density", "global")
            c.expect(_number(knn) and -1.0 <= knn <= 1.0, "knn_density.global", knn,
                     "a value in [-1, 1]")
            c.close("embedding_dispersion", _value(entries, "embedding_dispersion"),
                    m["dispersion"])
            c.close("data_density.log_density",
                    _value(entries, "data_density", "log_density"), m["log_density"])
        self._same_reports(runner, tags, self._measure_argv(), c)


class DocPairs(Workload):
    name = "doc-pairs"
    SAMPLE = 20

    def _spec(self):
        return {"pairs": str(self.dir / "pairs.jsonl"), "embeddings": str(self.dir / "tokens.txt")}

    def pass_ops(self, tag):
        return [("pairs", "pairs", self._spec())]

    def check(self, runner, tags, c):
        m = self.manifest
        for tag in tags:
            rows = runner.outputs[tag]["pairs"]["rows"]
            c.equal("pairs", len(rows), m["n_pairs"])
            c.expect(all(r["wmd"] is not None and r["wmd"] >= 0 for r in rows), "wmd",
                     [r["wmd"] for r in rows if r["wmd"] is None or r["wmd"] < 0][:5], ">= 0")
            c.expect(all(r["kl"] is not None and r["kl"] >= 0 for r in rows), "kl_divergence",
                     [r["kl"] for r in rows if r["kl"] is None or r["kl"] < 0][:5], ">= 0")
            bad = [r for r in rows if r["lev"] is None
                   or not abs(r["len_a"] - r["len_b"]) <= r["lev"] <= max(r["len_a"], r["len_b"])]
            c.expect(not bad, "levenshtein", bad[:3], "between |len a - len b| and max length")
            c.equal("wmd dropped tokens", sum(r["dropped"] or 0 for r in rows),
                    m["dropped_tokens"])
        result = runner.run("pairs-check", sample=self.SAMPLE, **self._spec())
        rows = result["rows"] if result else []
        c.equal("wmd check pairs", len(rows), self.SAMPLE)
        for i, (aa, ab, ba) in enumerate(rows):
            c.expect(aa == 0.0, f"wmd(a, a) pair {i}", aa, "0")
            c.expect(ab is not None and ba is not None and _close(ab, ba, 1e-6),
                     f"wmd symmetry pair {i}", (ab, ba), "equal within 1e-6")


WORKLOADS = {w.name: w for w in (TextZipf, EmbedGauss, DocPairs)}


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pass_seconds(passes: list[dict]) -> list[float]:
    return [sum(r["op_s"] for r in p.values()) for p in passes]


def _pass_refs(passes: list[dict]) -> list[float]:
    """Each pass's work in reference units (bench/reference.py)."""
    return [sum(reference.ref_units(r["ticks"]) for r in p.values()) for p in passes]


def end_to_end(runner: Runner, passes: list[dict]) -> dict:
    return {"setup_s": _median(runner.setup_samples), "work_ref": _median(_pass_refs(passes)),
            "peak_rss_mb": runner.maxrss_mb}


def per_layer(passes: list[dict], peak_pass: dict | None) -> dict:
    """Per-layer metrics: median over traced passes of each pass's total."""
    per_pass = []
    for results in passes:
        totals = dict.fromkeys(layers.SELF_TIME, 0.0)
        totals.update(dict.fromkeys(layers.COUNTS, 0))
        span_ms = []
        overhead = 0.0
        for result in results.values():
            spans = result["spans"]
            by_name: dict[str, float] = {}
            for (name, start, end, _), own in zip(spans, self_times(spans)):
                by_name[name] = by_name.get(name, 0.0) + own
                if name == layers.WMD_SPAN:
                    span_ms.append((end - start) * 1e3)
            for metric, names in layers.SELF_TIME.items():
                totals[metric] += sum(by_name.get(n, 0.0) for n in names)
            for name, value in result["counts"].items():
                totals[name] += value
            overhead += result["overhead_s"]
        for metric, label in layers.COMMANDS.items():
            totals[metric] = results[label]["op_s"] if label in results else 0.0
        totals["distance.wmd_p50_ms"] = _percentile(span_ms, 50)
        totals["distance.wmd_p95_ms"] = _percentile(span_ms, 95)
        totals["trace.overhead_s"] = overhead
        per_pass.append(totals)
    metrics = {name: _median([t[name] for t in per_pass]) for name in per_pass[0]}
    peaks = {}
    for result in (peak_pass or {}).values():
        for name, mb in result["peaks_mb"].items():
            peaks[name] = max(peaks.get(name, 0.0), mb)
    for metric, span in layers.PEAKS.items():
        metrics[metric] = peaks.get(span, 0.0)
    return metrics


def per_layer_units() -> dict:
    units = {m: "s" for m in layers.SELF_TIME}
    units.update({m: "count" for m in layers.COUNTS})
    units["report.bytes"] = "bytes"
    units.update({m: "MB" for m in layers.PEAKS})
    units.update({m: "s" for m in layers.COMMANDS})
    units.update({"distance.wmd_p50_ms": "ms", "distance.wmd_p95_ms": "ms",
                  "trace.overhead_s": "s"})
    return units


def _details(name: str, passes: list[dict]) -> list[str]:
    """Human-readable per-operation medians (stdout lines before the result)."""
    lines = [f"{name} work_s per pass " + " ".join(f"{w:.4f}" for w in _pass_seconds(passes)),
             f"{name} work_ref per pass " + " ".join(f"{w:.2f}" for w in _pass_refs(passes))]
    for label in passes[0]:
        times = [p[label]["op_s"] for p in passes if label in p]
        lines.append(f"{name} {label}_s median {_median(times):.4f} s over {len(times)} runs")
        if "wmd_ms" in passes[0][label]:
            for q in (50, 95):
                v = _median([_percentile(p[label]["wmd_ms"], q) for p in passes])
                lines.append(f"{name} wmd_p{q}_ms median {v:.4f} ms over "
                             f"{len(passes[0][label]['wmd_ms'])} calls per run")
    return lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _run_pass(runner: Runner, workload: Workload, tag: str, peaks: bool = False) -> dict:
    results = {}
    for label, op, spec in workload.pass_ops(tag):
        result = runner.run(op, peaks=peaks, **spec)
        if result is None:
            raise RuntimeError(f"{workload.name} {label} did not complete")
        results[label] = result
    runner.outputs[tag] = results
    return results


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=work_root))
    try:
        t0 = time.monotonic()
        workload = WORKLOADS[workload_name](workdir, seed)
        generate_s = time.monotonic() - t0
        runner = Runner(workdir, trace, started)
        warm = runner.run("import", env=True, count_setup=False)
        if warm is None:
            raise RuntimeError("dmeter.cli could not be imported")

        passes: list[dict] = []
        measure_start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            passes.append(_run_pass(runner, workload, f"p{len(passes)}"))
            now = time.monotonic()
            if now - measure_start + (now - pass_start) > seconds:
                break
        tags = [f"p{i}" for i in range(len(passes))]

        peak_pass = None
        if trace:
            peak_pass = _run_pass(runner, workload, "peak", peaks=True)
            tags.append("peak")

        checker = Checker(workload_name)
        workload.check(runner, tags, checker)
        while len(runner.setup_samples) < MIN_SETUP_SAMPLES:
            runner.run("import")

        if trace:
            metrics = per_layer(passes, peak_pass)
            units = per_layer_units()
        else:
            metrics = end_to_end(runner, passes)
            units = END_TO_END_UNITS
            for line in _details(workload_name, passes):
                print(line)
        env = dict(warm["env"], cpu=_cpu_model(), nproc=os.cpu_count(),
                   blas_threads=blas_threads(), seed=seed, workload=workload_name,
                   seconds=seconds, trace=int(trace), passes=len(passes),
                   setup_samples=len(runner.setup_samples), generate_s=round(generate_s, 3))
        print("env " + json.dumps(env, sort_keys=True))
        for problem in checker.problems:
            print("check failed: " + problem, file=sys.stderr)
        return {
            "correct": not checker.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dmeter" / "__init__.py").is_file():
        print(f"error: no dmeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
