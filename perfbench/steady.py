"""Steadiness check: run one workload with several seeds and report the spread.

    python3 perfbench/steady.py --workload sweep --seeds 1-10 --seconds 10

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread between
the quartiles as a share of the median, for the calibrated figures and for
the raw ones.  Runs are sequential; each is ``run.py`` in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="10")
    args = ap.parse_args()
    cal, raw, failed = {}, {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
        failed.append((result["failed"], result["attempted"]))
        for k, v in result["metrics"].items():
            cal.setdefault(k, []).append(v["value"])
        for k, v in json.loads(lines[-2].split(": ", 1)[1]).items():
            raw.setdefault(k, []).append(v)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                         for k, v in result["metrics"].items()),
              flush=True)
    print(f"{args.workload}: failed/attempted per run {failed}")
    print(f"{'metric':<16}{'kind':<12}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}")
    for name in cal:
        for kind, table in (("calibrated", cal), ("raw", raw)):
            med, q1, q3, rel = spread(table[name])
            print(f"{name:<16}{kind:<12}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
