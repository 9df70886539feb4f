"""Spans around the calls into each dualcox layer, recorded from outside.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper in every ``dualcox`` module namespace that refers to it, so calls
from inside the package are seen too.  A span is (id, name, parent id,
start, end); spans stay in memory and are written out when the run ends.
Element products are counted, not timed.  A layer whose function is gone
from the program is skipped, and its figures read 0.
"""

from __future__ import annotations

import sys
import time

# (module, function, span name); the span name's first part is the layer
LAYERS = (
    ("coxeter", "build_group", "coxeter.build"),
    ("coxeter", "enumerate_group", "coxeter.enumerate"),
    ("algebra", "row_space_rref", "algebra.elim"),
    ("algebra", "kernel_basis", "algebra.elim"),
    ("algebra", "invert", "algebra.elim"),
    ("dual", "reflection_length", "dual.length"),
    ("dual", "below_reflections", "dual.below"),
    ("dual", "reduced_expressions", "dual.listing"),
    ("hurwitz", "hurwitz_orbits", "hurwitz.orbits"),
    ("hurwitz", "is_parabolic_quasi_coxeter", "hurwitz.pqc_test"),
    ("subgroups", "reflection_closure", "subgroups.closure"),
    ("subgroups", "is_parabolic", "subgroups.parabolic"),
    ("cycles", "cycle_decomposition", "cycles.decompose"),
    ("cycles", "all_decompositions", "cycles.per_orbit"),
    ("suites", "run_suite", "suites.verify"),
    ("cli", "run", "cli.run"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.products = 0
        self.words_listed = 0
        self.orbits_found = 0
        self.below_seen = set()
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans) + 1
            parent = stack[-1]
            stack.append(sid)
            record = [sid, name, parent, clock(), 0.0]
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if name == "dual.listing":
                self.words_listed += len(result.words)
            elif name == "hurwitz.orbits":
                self.orbits_found += len(result)
            elif name == "dual.below":
                self.below_seen.add((id(args[0].group), args[0].images))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer function; import the dualcox modules first."""
        import dualcox
        import dualcox.cli  # noqa: F401  (the CLI is not imported by the package)

        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "dualcox" or n.startswith("dualcox."))]
        for mod_name, fn_name, span in LAYERS:
            mod = sys.modules.get(f"dualcox.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(span, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))
        element = dualcox.coxeter.Element
        orig_mul = element.__mul__

        def counted_mul(a, b):
            self.products += 1
            return orig_mul(a, b)

        element.__mul__ = counted_mul
        self._restore.append((element, "__mul__", orig_mul))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as out:
            out.write("id\tname\tparent\tstart\tend\n")
            for sid, name, parent, start, end in self.spans:
                out.write(f"{sid}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")

    def summary(self, samples) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans) and self seconds.

        Span times leave out the calibration slices (``calib.Samples``)
        that ran inside them.
        """
        by_id = {s[0]: s for s in self.spans}
        dur_of = {sid: end - start - samples.inside(start, end)
                  for sid, _, _, start, end in self.spans}
        child_time = {}
        for sid, _, parent, _, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + dur_of[sid]
        out = {}
        for sid, name, parent, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            dur = dur_of[sid]
            entry["self_s"] += dur - child_time.get(sid, 0.0)
            anc = by_id.get(parent)
            while anc is not None and anc[1] != name:
                anc = by_id.get(anc[2])
            if anc is None:
                entry["total_s"] += dur
        return {
            "spans": out,
            "products": self.products,
            "words_listed": self.words_listed,
            "orbits_found": self.orbits_found,
            "below_distinct": len(self.below_seen),
        }
