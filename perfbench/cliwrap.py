"""Run one ``dualcox`` command the way the ``dualcox`` script does, sampled.

    python3 perfbench/cliwrap.py OUT_PREFIX TRACE VERB GROUP ...

Runs ``dualcox.cli.run`` on the arguments and exits with its code, while
``calib.Sampler`` runs kernel slices next to it.  It writes the slices and
the moment ``cli.run`` began to OUT_PREFIX.json; with TRACE 1 it also
records spans (``tracing.py``), adds their summary there and writes the
spans to OUT_PREFIX.tsv.
"""

from __future__ import annotations

import json
import sys
import time

import calib


def main() -> int:
    prefix, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import dualcox.cli

    sampler = calib.Sampler()
    run_began = time.perf_counter()
    try:
        with sampler:
            return dualcox.cli.run(argv)
    finally:
        out = {"run_began": run_began, "samples": sampler.pairs()}
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary(sampler)
            tracer.write(prefix + ".tsv")
        with open(prefix + ".json", "w") as f:
            json.dump(out, f)


if __name__ == "__main__":
    sys.exit(main())
