"""In-memory span tracer that wraps zeroset's public layer functions from outside.

`Tracer.install()` replaces the module attributes through which the pipeline
calls each layer with wrappers that record a span (name, start, end, parent
span, job) and bump counters at the same boundary; `uninstall()` restores the
originals.  Nothing in the program itself changes, so an untraced run executes
exactly the program's code.

Spans live in flat arrays so a traced run of several hundred thousand lines
stays small in memory; `save()` writes them out once, at the end.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from array import array
from collections import Counter

import numpy as np

STURM_BUCKETS = ("0", "1", "2", "3", "4p")

# Layers reported by self time.  These, the Sturm buckets and the untraced
# remainder `other_s` add up to the traced wall time.  Key: span name; value:
# per-layer metric name.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "polynomial.parse": "polynomial.parse_s",
    "experiment": "experiment.self_s",
    "crofton": "crofton.self_s",
    "crofton.pool": "crofton.pool_s",
    "rng.unit_fraction": "rng.unit_fraction_s",
    "polynomial.restrict": "polynomial.restrict_s",
    "meshing.squares": "meshing.squares_s",
    "meshing.cubes": "meshing.cubes_s",
}


def _restore(patches) -> None:
    for owner, attr, original in patches:
        setattr(owner, attr, original)


def _crofton_lines(box, scheme) -> int:
    """Axis lines one `crofton_upper_estimate(p, box, scheme)` call counts."""
    d = box.dimension
    n = getattr(scheme, "points_per_axis", None)
    return d * (n ** (d - 1) if n is not None else scheme.samples)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.current_job = -1
        self.counts: Counter = Counter()
        self.patches: list = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        if self.stack[-1] == i:
            self.stack.pop()
        else:  # a span that outlived a later one (e.g. a long-lived pool)
            self.stack.remove(i)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, args, kwargs)` updates counters."""
        nid = self._id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def close_open_spans(self) -> None:
        now = time.perf_counter_ns()
        for i in self.stack[1:]:
            self.end[i] = now
        del self.stack[1:]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, modules: dict) -> None:
        """Wrap the layer entry points; `modules` maps short names to modules."""
        cli, crofton = modules["cli"], modules["crofton"]
        experiment, polynomial = modules["experiment"], modules["polynomial"]
        counts = self.counts

        def count_lines(result, args, kwargs):
            counts["crofton.lines"] += _crofton_lines(args[1], args[2])

        def count_cells(result, args, kwargs):
            counts["meshing.cells"] += args[2] ** args[1].dimension
            counts["meshing.cells_crossed"] += result.cells_with_sign_change

        self._patch(cli, "parse_polynomial", lambda f: self.wrap("polynomial.parse", f))
        self._patch(cli, "sharpness_experiment", lambda f: self.wrap("experiment", f))
        for owner in (cli, experiment):
            self._patch(owner, "crofton_upper_estimate",
                        lambda f: self.wrap("crofton", f, count_lines))
            self._patch(owner, "marching_squares_length",
                        lambda f: self.wrap("meshing.squares", f, count_cells))
            self._patch(owner, "marching_cubes_area",
                        lambda f: self.wrap("meshing.cubes", f, count_cells))
        self._patch(crofton, "unit_fraction", lambda f: self.wrap("rng.unit_fraction", f))
        self._patch(polynomial.Polynomial, "restrict_to_line",
                    lambda f: self.wrap("polynomial.restrict", f))
        self._patch(crofton, "count_real_roots", self._wrap_count)
        self._patch(crofton, "ProcessPoolExecutor", self._wrap_pool)

    def uninstall(self) -> None:
        _restore(reversed(self.patches))
        self.patches = []

    def _wrap_count(self, fn):
        """Sturm root counts, one span name per degree of the restricted polynomial."""
        zero = self._id("sturm.count.degzero")
        by_degree = [self._id(f"sturm.count.deg{b}") for b in STURM_BUCKETS]
        open_, close = self.open, self.close

        def traced(u, lo, hi):
            size = len(u.coefficients)
            i = open_(by_degree[min(size - 1, 4)] if size else zero)
            try:
                return fn(u, lo, hi)
            finally:
                close(i)

        return traced

    def _wrap_pool(self, base):
        """Executor subclass: span over its lifetime, counts of tasks and pickled bytes."""
        tracer = self
        nid = self._id("crofton.pool")
        counts = self.counts

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._span = tracer.open(nid)
                context = kwargs.get("mp_context") or multiprocessing.get_context()
                if context.get_start_method() == "fork" and "initializer" not in kwargs:
                    # Forked workers inherit the wrappers; give them the originals.
                    kwargs.update(initializer=_restore, initargs=(list(tracer.patches),))
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                counts["crofton.pool_tasks"] += 1
                counts["crofton.pool_bytes_sent"] += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        return TracedPool

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time (seconds)."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        covered = np.zeros_like(duration)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], duration[child])
        self_time = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()) / 1e9,
                "self_s": float(self_time[mask].sum()) / 1e9,
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
