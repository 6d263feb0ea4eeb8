"""Span and counter recorder that traces qgl from outside.

Each traced function is replaced by a wrapper in every `qgl` module namespace
that holds it, so names imported with `from .secular import evolution_matrix`
are traced where `spectrum` and `magnetic` look them up.  A wrapper records a
span (name, calling namespace, start, end, parent span, raised) in memory;
spans are written out when the benchmark ends.  A layer's self time is its
span's duration minus the durations of its direct child spans.

Functions that no longer exist are skipped, so their metrics read as absent
(zero calls) instead of crashing the benchmark.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layers are the modules under src/qgl; each lists the functions traced in it.
LAYERS = {
    "graphs": ("load_graph", "validate", "find_bridges", "edge_separation",
               "classify_family"),
    "secular": ("bond_scattering", "evolution_matrix", "evaluate", "unitary_eig",
                "adjugate_from_unitary_spectrum", "sample_manifold",
                "loop_reduced_determinant", "bridge_factorization"),
    # the Newton polish is left inside locate_spectrum's self time
    "spectrum": ("counting", "locate_spectrum", "eigenfunction_at", "classify"),
    "counts": ("counts",),
    "neumann": ("star_observables", "partition"),
    "magnetic": ("magnetic_secular", "hessian_alpha", "local_indices",
                 "morse_index", "spanning_tree", "flux_edges"),
    "stats": ("run_experiment",),
    "cli": ("main", "locate_parallel", "_locate_window", "_expand",
            "_write_rows", "cmd_spectrum", "cmd_manifold"),
}

# A span of this function in a worker process is the root of that process's
# trace: the worker drops the spans it inherited and writes its own when the
# function returns, so window localization in worker processes is counted.
PROCESS_ROOTS = {"cli._locate_window"}

# Functions whose results are counted (list length), for per-level ratios.
COUNTED_RESULTS = {"spectrum.locate_spectrum", "cli.locate_parallel"}


class Recorder:
    """In-memory spans of the current process.

    A span is a tuple (id, parent, name, site, t0, t1, raised, pid)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.origin = os.getpid()
        self.pid = self.origin
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []
        self.next_id = 0
        self.items_returned: dict[str, int] = defaultdict(int)

    def _fresh_process(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.items_returned = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str, site: str):
        sid = (self.pid, self.next_id)
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        raised = False
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, site, t0, t1, raised, self.pid))

    def call(self, name: str, site: str, fn, args, kwargs):
        root = name in PROCESS_ROOTS and os.getpid() != self.origin
        if root:
            self._fresh_process()
        try:
            with self.span(name, site):
                out = fn(*args, **kwargs)
            if name in COUNTED_RESULTS:
                self.items_returned[name] += len(out)
            return out
        finally:
            if root:
                self._spill()

    def resume(self, name: str, site: str, gen):
        """Trace a generator: one span per resumption, so the consumer's work
        between items is not charged to the generator."""
        while True:
            with self.span(name, site):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item

    def _spill(self):
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"worker-{self.pid}-{self.next_id}.json"
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "items_returned": self.items_returned}, fh)
        self.spans = []
        self.items_returned = defaultdict(int)

    def collect_workers(self):
        """Merge in the spans and result tallies that worker processes wrote;
        the files are removed once read."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            with open(path) as fh:
                data = json.load(fh)
            path.unlink()
            for s in data["spans"]:
                self.spans.append((tuple(s[0]), tuple(s[1]) if s[1] else None, *s[2:]))
            for name, n in data["items_returned"].items():
                self.items_returned[name] += n
        self.spill_dir.rmdir()


def _wrap(rec: Recorder, name: str, site: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return rec.resume(name, site, fn(*args, **kwargs))
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, site, fn, args, kwargs)
    return wrapper


class Tracer:
    """Installs wrappers into the loaded qgl modules and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def install(self):
        self.absent = []
        homes = {}
        for layer in LAYERS:
            try:
                homes[layer] = importlib.import_module(f"qgl.{layer}")
            except ImportError:
                homes[layer] = None
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "qgl" or n.startswith("qgl."))}
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fname in names:
                qual = f"{layer}.{fname}"
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(qual)
                    continue
                for mname, mod in modules.items():
                    for attr, val in list(mod.__dict__.items()):
                        if val is orig:
                            site = mname.removeprefix("qgl.")
                            setattr(mod, attr, _wrap(self.rec, qual, site, orig))
                            self.installed.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self.installed):
            setattr(mod, attr, orig)
        self.installed = []


def aggregate(spans: list[tuple], into: dict) -> dict:
    """Add to `into`, per span name: calls, total time, self time and raised
    count, with calls tallied by calling namespace and by parent span name."""
    child_time: dict[tuple, float] = defaultdict(float)
    names = {}
    for sid, parent, name, _s, t0, t1, _r, _p in spans:
        names[sid] = name
        if parent is not None:
            child_time[parent] += t1 - t0
    for sid, parent, name, site, t0, t1, raised, _pid in spans:
        a = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "raised": 0, "sites": defaultdict(int),
                                   "parents": defaultdict(int)})
        a["calls"] += 1
        a["total_s"] += t1 - t0
        a["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        a["raised"] += int(raised)
        a["sites"][site] += 1
        a["parents"][names.get(parent)] += 1
    return into


def write_spans(path: Path, spans: list[tuple]):
    """One JSON array per line: [id, parent, name, site, t0, t1, raised, pid],
    where an id is [pid, serial] and times are perf_counter seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")))
            fh.write("\n")
