"""Runs one benchmark operation in a fresh interpreter; writes its result as JSON.

Usage: python3 child.py SPEC_JSON SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start-up through `import dmeter.cli`.  The spec
names the operation:

  import       nothing after the import (a set-up sample; with "env", versions)
  cli          dmeter.cli.main(argv), timed after the import
  pairs        word mover's distance, Levenshtein and KL divergence per pair
  pairs-check  WMD(a, a) and WMD in both directions on the first pairs

Untraced timed operations (cli, pairs) run under reference.Sampler: their
op_s leaves out the time of the reference ticks, and their ticks go into the
result (bench/reference.py).

With "trace" the dmeter functions listed in layers.py are wrapped for the
operation and the spans go into the result; with "peaks" as well, the peak
allocations of the functions in layers.PEAKS are taken with tracemalloc.
"""

import contextlib
import json
import resource
import sys
import time


def _env() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _tally() -> dict:
    return {"attempted": 0, "failed": 0, "errors": []}


def _call(tally, fn, *args):
    """fn(*args), counting the attempt and any exception as a failed operation."""
    tally["attempted"] += 1
    try:
        return fn(*args)
    except Exception as exc:  # a failed library call is a counted outcome, not a crash
        tally["failed"] += 1
        tally["errors"].append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
        return None


def _load_pairs(spec):
    from dmeter import vectors

    emb = vectors.load_embeddings(spec["embeddings"])
    with open(spec["pairs"], encoding="utf-8") as fh:
        pairs = [json.loads(line) for line in fh]
    return emb, pairs


def run_cli(spec) -> dict:
    import dmeter.cli

    start = time.perf_counter()
    try:
        code = dmeter.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    return {"op_s": time.perf_counter() - start, "exit_code": code}


def run_pairs(spec) -> dict:
    from collections import Counter

    from dmeter import corpus, distance

    def kl(ta, tb):
        return distance.kl_divergence(distance.Distribution.from_counts(Counter(ta)),
                                      distance.Distribution.from_counts(Counter(tb)))

    start = time.perf_counter()
    emb, pairs = _load_pairs(spec)
    tally = _tally()
    wmd_ms, rows = [], []
    for pair in pairs:
        a, b = pair["a"], pair["b"]
        ta, tb = corpus.tokenize(a), corpus.tokenize(b)
        t0 = time.perf_counter()
        wmd = _call(tally, distance.word_movers_distance, ta, tb, emb)
        wmd_ms.append((time.perf_counter() - t0) * 1e3)
        lev = _call(tally, distance.levenshtein, a, b)
        rows.append({"wmd": None if wmd is None else wmd.distance,
                     "dropped": None if wmd is None else wmd.dropped_a + wmd.dropped_b,
                     "lev": lev, "len_a": len(a), "len_b": len(b),
                     "kl": _call(tally, kl, ta, tb)})
    return dict(tally, op_s=time.perf_counter() - start, wmd_ms=wmd_ms, rows=rows)


def run_pairs_check(spec) -> dict:
    from dmeter import corpus, distance

    emb, pairs = _load_pairs(spec)
    tally = _tally()
    rows = []
    for pair in pairs[: spec["sample"]]:
        ta, tb = corpus.tokenize(pair["a"]), corpus.tokenize(pair["b"])
        rows.append([
            getattr(_call(tally, distance.word_movers_distance, x, y, emb), "distance", None)
            for x, y in ((ta, ta), (ta, tb), (tb, ta))
        ])
    return dict(tally, rows=rows)


OPS = {"import": lambda spec: {}, "cli": run_cli, "pairs": run_pairs,
       "pairs-check": run_pairs_check}
TIMED = ("cli", "pairs")


def main() -> int:
    spec_path, spawned = sys.argv[1], float(sys.argv[2])
    import dmeter.cli  # noqa: F401  (the set-up being timed)

    setup_s = time.monotonic() - spawned
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_s}
    if spec.get("env"):
        result["env"] = _env()
    tracer = None
    if spec.get("trace"):
        import layers
        import spans

        tracer = spans.Tracer(peak_names=layers.PEAKS.values() if spec.get("peaks") else ())
        tracer.install("dmeter", layers.TARGETS)
    sampler = None
    if spec["op"] in TIMED and tracer is None:
        import reference

        sampler = reference.Sampler()
    try:
        with sampler or contextlib.nullcontext():
            result.update(OPS[spec["op"]](spec))
    finally:
        if tracer is not None:
            tracer.restore()
    if sampler is not None:
        result.update(op_s=result["op_s"] - sampler.spent_s, ticks=sampler.ticks)
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, peaks_mb=tracer.peaks_mb,
                      overhead_s=tracer.overhead_s())
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
