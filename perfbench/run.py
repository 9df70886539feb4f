"""Benchmark of dualcox: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``sweep``, ``words`` and ``cli`` (see README.md).  A run repeats
whole passes of the workload's fixed op list until ``--seconds`` have gone
by; each pass of ``sweep`` and ``words`` runs in a fresh interpreter
(worker.py) so that it starts with cold caches.  Every time is calibrated
against the reference kernel in calib.py.  With ``--trace 0`` the last line
of standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Raw figures
and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402

WORKLOADS = ("sweep", "words", "cli")
#: Set-up samples per run; each is a fresh interpreter.
SETUP_SAMPLES = {"sweep": 9, "words": 3, "cli": 9}
#: A run starts no new pass that would end after this many seconds...
RUN_BUDGET_S = 120
#: ...and stops, with no result, when a child is still running after this many.
RUN_LIMIT_S = 170
#: Below this many ops in a pass, its tail is its slowest op.
TAIL_MIN_OPS = 40

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_geomean_ms": "ms",
    "op_tail_ms": "ms", "words_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coxeter.build_ms": "ms", "coxeter.enumerate_ms": "ms", "coxeter.products": "count",
    "algebra.elim_ms": "ms", "algebra.elim_calls": "count",
    "dual.length_ms": "ms", "dual.length_calls": "count",
    "dual.below_ms": "ms", "dual.below_calls": "count", "dual.below_distinct": "count",
    "dual.listing_ms": "ms", "dual.words_listed": "count",
    "hurwitz.orbits_ms": "ms", "hurwitz.orbits_found": "count",
    "hurwitz.pqc_test_ms": "ms",
    "subgroups.closure_ms": "ms", "subgroups.closure_calls": "count",
    "subgroups.parabolic_ms": "ms",
    "cycles.decompose_ms": "ms", "cycles.per_orbit_ms": "ms",
    "suites.verify_ms": "ms",
    "cli.start_ms": "ms", "cli.verb_ms": "ms",
    "bench.ref_ms": "ms", "bench.raw_op_s": "s", "bench.trace_overhead": "ratio",
}
# per-layer time metric -> (span name, "total" or "self")
SPAN_TIMES = {
    "coxeter.build_ms": ("coxeter.build", "total_s"),
    "coxeter.enumerate_ms": ("coxeter.enumerate", "total_s"),
    "algebra.elim_ms": ("algebra.elim", "total_s"),
    "dual.length_ms": ("dual.length", "total_s"),
    "dual.below_ms": ("dual.below", "total_s"),
    "dual.listing_ms": ("dual.listing", "self_s"),
    "hurwitz.orbits_ms": ("hurwitz.orbits", "self_s"),
    "hurwitz.pqc_test_ms": ("hurwitz.pqc_test", "total_s"),
    "subgroups.closure_ms": ("subgroups.closure", "total_s"),
    "subgroups.parabolic_ms": ("subgroups.parabolic", "total_s"),
    "cycles.decompose_ms": ("cycles.decompose", "total_s"),
    "cycles.per_orbit_ms": ("cycles.per_orbit", "total_s"),
    "suites.verify_ms": ("suites.verify", "total_s"),
    "cli.verb_ms": ("cli.run", "self_s"),
}
SPAN_CALLS = {
    "algebra.elim_calls": "algebra.elim",
    "dual.length_calls": "dual.length",
    "dual.below_calls": "dual.below",
    "subgroups.closure_calls": "subgroups.closure",
}
SUMMARY_COUNTS = {
    "coxeter.products": "products",
    "dual.words_listed": "words_listed",
    "hurwitz.orbits_found": "orbits_found",
    "dual.below_distinct": "below_distinct",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """Children find dualcox in src/, keep its bytecode as an install would,
    and hash strings the same way in every run."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


_STARTED = time.perf_counter()


def run_child(argv) -> subprocess.CompletedProcess:
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - _STARTED))
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{argv[1:4]} still ran after {RUN_LIMIT_S} s") from exc


def last_json(proc, what) -> dict:
    require_ok(proc, what)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- in-process workloads: sweep, words ----------------------------------


def worker(workload, seed, mode, trace=0, spans=None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    if spans:
        argv += ["--spans", str(spans)]
    proc = run_child(argv)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return last_json(proc, f"{workload} {mode} worker")


def repeat_passes(seconds, one_pass) -> list:
    """Whole passes until their calibrated op time reaches ``seconds``.

    Counting calibrated time, not wall time, keeps the number of passes the
    same on a fast and on a slow host.
    """
    passes, t0, measured = [], time.perf_counter(), 0.0
    while True:
        passes.append(one_pass(len(passes)))
        measured += sum(passes[-1]["op_s"])
        elapsed = time.perf_counter() - t0
        if measured >= seconds or elapsed * (len(passes) + 1) / len(passes) > RUN_BUDGET_S:
            return passes


def inproc_passes(workload, seed, seconds, trace, tag) -> list:
    def one(i):
        spans = OUT / f"spans-{tag}-pass{i}.tsv" if trace else None
        return worker(workload, seed, "pass", trace, spans)

    return repeat_passes(seconds, one)


def inproc_setups(workload, seed, passes) -> tuple:
    """(raw, calibrated) set-up times: the passes' own, then set-up-only workers."""
    setups = [p["setup"] for p in passes]
    while len(setups) < SETUP_SAMPLES[workload]:
        setups.append(worker(workload, seed, "setup")["setup"])
    return [raw for raw, _ in setups], [cal for _, cal in setups]


# -- cli workload ---------------------------------------------------------


def timed_child(points, argv):
    """Run a child between two pairs of kernel slices; (proc, t0, t1)."""
    points.point()
    points.point()
    t0 = time.perf_counter()
    proc = run_child(argv)
    t1 = time.perf_counter()
    points.point()
    points.point()
    return proc, t0, t1


def cli_setups(points) -> tuple:
    """(raw, calibrated) times of fresh interpreters importing dualcox.

    One untimed import first writes the bytecode cache, as installing would.
    """
    argv = [sys.executable, "-c", "import dualcox"]
    require_ok(run_child(argv), "import dualcox")
    raw, cal = [], []
    for _ in range(SETUP_SAMPLES["cli"]):
        proc, t0, t1 = timed_child(points, argv)
        require_ok(proc, "import dualcox")
        r, c = points.calibrate(t0, t1)
        raw.append(r)
        cal.append(c)
    return raw, cal


def require_ok(proc, what):
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")


def cli_passes(seed, seconds, trace, tag, points, checker) -> list:
    import random

    import cliload

    def one(i):
        calls = cliload.argv_list(random.Random(seed))
        p = {"labels": [], "op_raw_s": [], "op_s": [], "op_ok": [], "failed": 0,
             "words_listed": 0, "errors": [], "n_errors": 0, "trace": []}
        for j, (argv, spec) in enumerate(calls):
            prefix = OUT / f"{tag}-pass{i}-call{j}"
            cmd = [sys.executable, str(BENCH / "cliwrap.py"), str(prefix), str(trace), *argv]
            report = prefix.with_suffix(".json")
            report.unlink(missing_ok=True)
            proc, t0, t1 = timed_child(points, cmd)
            child = json.loads(report.read_text()) if report.exists() else {"samples": []}
            for start, dur in child["samples"]:
                points.add(start, dur)
            both = calib.Samples(sorted(points.pairs()))
            raw, cal = both.calibrate(t0, t1)
            p["labels"].append(" ".join(argv))
            p["op_raw_s"].append(raw)
            p["op_s"].append(cal)
            ok = proc.returncode == 0
            p["op_ok"].append(ok)
            if not ok:
                p["failed"] += 1
                sys.stderr.write(f"dualcox {' '.join(argv)} exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
                continue
            doc = json.loads(proc.stdout)
            p["words_listed"] += cliload.words_listed(doc)
            errors = checker.check(argv, spec, doc)
            p["errors"] += errors
            p["n_errors"] += len(errors)
            if trace:
                s = child["trace"]
                s["start_s"] = child["run_began"] - t0
                s["factor"] = cal / raw
                p["trace"].append(s)
        return p

    return repeat_passes(seconds, one)


# -- metrics --------------------------------------------------------------


def end_to_end(passes, setups, rss_mb) -> dict:
    lat = [s for p in passes for s, ok in zip(p["op_s"], p["op_ok"]) if ok]
    if not lat:
        raise BenchError("every op failed; there is nothing to measure")
    busy = sum(lat)
    words = sum(p["words_listed"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / busy,
        "op_geomean_ms": 1000 * math.exp(statistics.fmean(math.log(s) for s in lat)),
        "op_tail_ms": 1000 * statistics.median(pass_tail(p["op_s"]) for p in passes),
        "words_per_s": words / busy,
        "peak_rss_mb": rss_mb,
    }


def pass_tail(lat) -> float:
    """The latency with ten ops above it; with too few ops, the slowest."""
    if len(lat) < TAIL_MIN_OPS:
        return max(lat)
    return sorted(lat)[len(lat) - 11]


def per_layer(untraced, traced, ref_points) -> dict:
    n = len(traced)
    out = {name: 0.0 for name in PER_LAYER}
    for p in traced:
        factor = sum(p["op_s"]) / sum(p["op_raw_s"])
        for s in p["trace"]:
            spans = s["spans"]
            f = s.get("factor", factor)
            for metric, (span, kind) in SPAN_TIMES.items():
                out[metric] += 1000 * f * spans.get(span, {}).get(kind, 0.0) / n
            for metric, span in SPAN_CALLS.items():
                out[metric] += spans.get(span, {}).get("calls", 0) / n
            for metric, key in SUMMARY_COUNTS.items():
                out[metric] += s[key] / n
            if "start_s" in s:
                out["cli.start_ms"] += 1000 * f * s["start_s"] / n
    raw_op = [sum(p["op_raw_s"]) for p in untraced]
    out["bench.ref_ms"] = 1000 * statistics.median(ref_points)
    out["bench.raw_op_s"] = statistics.median(raw_op)
    out["bench.trace_overhead"] = (
        statistics.fmean(sum(p["op_s"]) for p in traced)
        / statistics.fmean(sum(p["op_s"]) for p in untraced))
    return out


# -- one run ---------------------------------------------------------------


def run(workload, seed, seconds, trace) -> dict:
    if not (ROOT / "src" / "dualcox" / "__init__.py").is_file():
        raise BenchError(f"no dualcox sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    calib.pin()
    if workload == "cli":
        import cliload

        checker = cliload.Checker()
        points = calib.Samples()
        setups = ([], []) if trace else cli_setups(points)
        passes = cli_passes(seed, seconds, 0, tag, points, checker)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        traced = cli_passes(seed, seconds, 1, tag, points, checker) if trace else []
        ref_points = points.times
    else:
        passes = inproc_passes(workload, seed, seconds, 0, tag)
        setups = ([], []) if trace else inproc_setups(workload, seed, passes)
        rss_mb = statistics.median(p["rss_kb"] for p in passes) / 1024
        traced = inproc_passes(workload, seed, seconds, 1, tag) if trace else []
        ref_points = [k for p in passes for _, k in p["samples"]]
    everything = passes + traced
    attempted = sum(len(p["op_s"]) for p in everything)
    failed = sum(p["failed"] for p in everything)
    n_errors = sum(p["n_errors"] for p in everything)
    for p in everything:
        for e in p["errors"]:
            sys.stderr.write(f"wrong answer: {e}\n")
    if trace:
        metrics = per_layer(passes, traced, ref_points)
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setups[1], rss_mb)
        units = END_TO_END
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "ref_slice_s": calib.REF_SLICE_S, "ref_points_s": ref_points,
        "setup_raw_s": setups[0], "setup_s": setups[1], "metrics": metrics,
        "passes": [{k: p.get(k) for k in ("labels", "op_raw_s", "op_s", "op_ok",
                                          "op_spans", "samples")}
                   for p in everything],
    }
    if not trace:
        raw_passes = [dict(p, op_s=p["op_raw_s"]) for p in passes]
        raw["raw_metrics"] = end_to_end(raw_passes, setups[0], rss_mb)
        print("raw (uncalibrated): " + json.dumps(raw["raw_metrics"]))
    (OUT / f"{tag}.json").write_text(json.dumps(raw))
    return {
        "correct": n_errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
