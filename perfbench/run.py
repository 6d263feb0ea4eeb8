"""qgl benchmark: eigenpair-stream throughput, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`.  One run measures set-up in fresh interpreters, makes one untimed
warm-up call, then repeats the workload's call (closed loop, one call at a
time) for about S seconds, checking every output against the reference
recorded for its input.  With `--trace 0` it reports the end-to-end metrics,
each timing scaled by the host-speed probes run around it (probe.py);
with `--trace 1` it alternates untraced and traced calls and reports the
per-layer metrics.  Human-readable detail comes first; the last line of
standard output is one JSON object.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# BLAS threads must be pinned before numpy loads; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3     # fresh interpreters per run; setup_s is their median
MIN_CALLS = 3         # timed calls per run, unless the deadline passes
DEADLINE_S = 150      # a call still running then is stopped and counts as failed
SETUP_CODE = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
              "importlib.import_module(sys.argv[2]); "
              "from qgl.graphs import load_graph; load_graph(sys.argv[3])")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's quick size")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference file in place of the recorded one")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(entry: str, graph_path: Path) -> list[tuple[float, float]]:
    """(wall s, probe s) of each fresh-interpreter set-up; the probe time is
    the mean of the start-up probes right before and right after it."""
    out = []
    before = probe.startup_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), entry,
                        str(graph_path)], check=True)
        wall = time.perf_counter() - t0
        after = probe.startup_probe()
        out.append((wall, (before + after) / 2))
        before = after
    return out


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class DeadlinePassed(Exception):
    pass


class Runner:
    """Makes calls, times them, and checks each output against the reference.

    After DEADLINE_S seconds of the run a call in progress is interrupted
    (SIGALRM) and no further call starts, so a broken or very slow program
    still ends the run with a result."""

    def __init__(self, wl, size, graph_path, out_dir, reference):
        self.wl, self.size = wl, size
        self.graph_path, self.out_dir = graph_path, out_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expired = False
        self._in_call = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.alarm(DEADLINE_S)

    def _on_alarm(self, signum, frame):
        self.expired = True
        if self._in_call:
            raise DeadlinePassed(f"run passed its {DEADLINE_S} s deadline")

    def call(self, size=None):
        """One call: (wall s, cpu s, rows, summary), or None if it failed.

        With `size` given the call is a warm-up: it fails only by raising."""
        import workloads
        if self.expired:
            return None
        self.attempted += 1
        self._in_call = True
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = workloads.run_call(self.wl, size or self.size,
                                        self.graph_path, self.out_dir)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            summary = workloads.summarize(self.wl, result)
        except Exception as exc:   # any raise is a failed call, reported below
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self._in_call = False
        bad = [] if size else workloads.mismatches(self.wl, summary, self.reference)
        if bad:
            self.failed += 1
            self.problems.append("; ".join(bad))
            return None
        return wall, cpu, workloads.rows_of(self.wl, summary), summary


def _spread(values: list[float]) -> str:
    """Median, quartiles, and the highest percentile with ten samples above it."""
    if not values:
        return "no samples"
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    text = (f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n {len(values)}")
    if len(values) > 10:
        text += f"  p{100 * (1 - 10 / len(values)):.0f} {sorted(values)[-11]:.6g}"
    return text


def run_plain(runner: Runner, seconds: float, setup: list[tuple[float, float]]) -> dict:
    """Closed loop of timed calls for about `seconds`, at least MIN_CALLS.

    A probe runs before the first call and after every call; each timing is
    scaled by the mean of the two probes around it (see probe.py)."""
    samples = []
    before = probe.probe()
    start = time.perf_counter()
    for done in itertools.count(1):
        s = runner.call()
        after = probe.probe()
        if s is not None:
            samples.append((*s, (before + after) / 2))
        before = after
        elapsed = time.perf_counter() - start
        typical = elapsed / done
        if runner.expired or (done >= MIN_CALLS and elapsed + typical > seconds):
            break
    ref = probe.REFERENCE_S
    throughput = [rows / wall * p / ref for wall, _, rows, _, p in samples]
    cpu_ms = [1000.0 * cpu / rows * ref / p for _, cpu, rows, _, p in samples]
    setup_s = [wall * probe.STARTUP_REFERENCE_S / p for wall, p in setup]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if samples:
        print(f"rows per call:  {samples[0][2]}")
    print(f"probe s:        {_spread([s[4] for s in samples])}  "
          f"(reference {ref} s)")
    print(f"startup probe s: {_spread([p for _, p in setup])}  "
          f"(reference {probe.STARTUP_REFERENCE_S} s)")
    print("unscaled")
    print(f"  call wall s:    {_spread([s[0] for s in samples])}")
    print(f"  rows_per_s:     {_spread([s[2] / s[0] for s in samples])}")
    print(f"  cpu_ms_per_row: {_spread([1000.0 * s[1] / s[2] for s in samples])}")
    print(f"  setup_s:        {_spread([wall for wall, _ in setup])}")
    print("scaled to the reference probe time (reported)")
    print(f"  rows_per_s:     {_spread(throughput)}")
    print(f"  cpu_ms_per_row: {_spread(cpu_ms)}")
    print(f"  setup_s:        {_spread(setup_s)}")
    return {
        "rows_per_s": (statistics.median(throughput) if samples else 0.0, "1/s"),
        "cpu_ms_per_row": (statistics.median(cpu_ms) if samples else 0.0, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced calls for about `seconds`, at least one
    pair; the untraced ones give the tracing overhead.  Spans of every traced
    call are aggregated; those of the first are kept and written out."""
    import layers
    import tracing
    rec = tracing.Recorder(OUT / f"workers-{os.getpid()}")
    tracer = tracing.Tracer(rec)
    agg: dict = {}
    kept: list[tuple] = []
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    for done in itertools.count(1):
        s = runner.call()
        if s is not None:
            plain.append(s[0])
        tracer.install()
        try:
            s = runner.call()
        finally:
            tracer.uninstall()
        rec.collect_workers()
        if s is not None:
            traced.append(s[0])
            summaries.append((s[2], s[3]))
        tracing.aggregate(rec.spans, agg)
        kept = kept or rec.spans
        rec.spans = []
        elapsed = time.perf_counter() - start
        if runner.expired or elapsed + elapsed / done > seconds:
            break
    tracing.write_spans(trace_path, kept)
    print(f"traced calls: {len(traced)}; spans of the first written to "
          f"{trace_path.relative_to(ROOT)}")
    if tracer.absent:
        print(f"absent from qgl, reported as 0: {tracer.absent}")
    overhead = (statistics.median(traced) - statistics.median(plain)
                if traced and plain else 0.0)
    metrics = layers.per_layer(agg, rec.items_returned, summaries, overhead)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:12.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgl" / "__init__.py").is_file():
        print(f"error: no qgl sources under {SRC}; run from a qgl checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qgl
    if Path(qgl.__file__).resolve().parent != SRC / "qgl":
        print(f"error: imported qgl from {qgl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    size = wl.sizes[args.size]

    ref_path = args.reference or workloads.reference_path(wl)
    ref_all = workloads.load_reference(ref_path)
    key = workloads.reference_key(wl, args.seed)
    reference = ref_all[args.size][key]

    work_dir = OUT / f"{wl.name}-{os.getpid()}"
    graph_path = workloads.write_graph(wl, args.seed, work_dir / "graph.json")
    env = environment()
    print("environment: " + json.dumps(env))
    print(f"workload {wl.name}: size {size}, seed {args.seed} "
          f"(length draw {workloads.bank_seed(args.seed)}), reference {ref_path.name}")

    try:
        runner = Runner(wl, size, graph_path, work_dir / "out", reference)
        # untimed warm-up at the tiny size: lazy imports and LAPACK set-up
        # made the first call after import 15-25% slower
        runner.call(size=wl.sizes["tiny"])
        if args.trace:
            trace_path = OUT / f"trace-{wl.name}.jsonl"
            metrics = run_traced(runner, args.seconds, trace_path)
        else:
            entry = "qgl.stats" if wl.kind == "stats" else "qgl.cli"
            metrics = run_plain(runner, args.seconds, measure_setup(entry, graph_path))
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in runner.problems:
        print(f"FAILED: {problem}")
    print(f"attempted {runner.attempted}, failed {runner.failed}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
