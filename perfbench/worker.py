"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload sweep --seed 1 --mode pass --trace 0

A fresh interpreter per pass is what keeps every pass cold: dualcox caches
per group, and a second pass in one process would find every answer cached.
``--mode setup`` only times set-up.  The last line of standard output is
one JSON object with raw and calibrated times.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback

import calib
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the spans of a traced pass")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload]()
    sampler = calib.Sampler()
    with sampler:
        sampler.point()
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        sampler.pause()
        sampler.point()
        inputs = wl.inputs(random.Random(args.seed)) if args.mode == "pass" else []
        # every pass starts its ops with empty collector generations, so the
        # collector's pauses fall on the same ops in every run
        gc.collect()
        spans, results = [], []
        for i, (_, g, word, _) in enumerate(inputs):
            if i % wl.ops_per_slice == 0:
                sampler.point()
            s0 = time.perf_counter()
            if wl.long_ops:
                sampler.resume()
            try:
                res = wl.op(g, word)
            except Exception:  # an op that raises is counted as failed
                traceback.print_exc(file=sys.stderr)
                res = None
            sampler.pause()
            spans.append((s0, time.perf_counter()))
            results.append(res)
        sampler.point()
    out = {"setup": sampler.calibrate(t0, t1)}
    if args.mode == "pass":
        timed = [sampler.calibrate(s0, s1) for s0, s1 in spans]
        errors = wl.check(inputs, results)
        out.update({
            "labels": [item[0] for item in inputs],
            "op_raw_s": [raw for raw, _ in timed],
            "op_s": [cal for _, cal in timed],
            "op_ok": [r is not None for r in results],
            "failed": sum(r is None for r in results),
            "words_listed": sum(wl.words_listed(r) for r in results if r is not None),
            "errors": errors[:20],
            "n_errors": len(errors),
        })
    out["samples"] = sampler.pairs()
    if args.mode == "pass":
        out["op_spans"] = spans
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = [tracer.summary(sampler)]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
