"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

Runs each workload once per length draw (all `BANK` of them, or one for a
workload whose output does not depend on lengths), at both sizes, and writes
perfbench/reference/<workload>.json.gz.  References are recorded once, at the
commit named in perfbench/README.md; re-recording them at a later commit
would make the benchmark accept whatever that commit computes.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(wl: workloads.Workload) -> dict:
    work = HERE / "out" / f"record-{wl.name}"
    keys = range(workloads.BANK) if wl.seeded else [0]
    data = {"workload": wl.name, "sizes": wl.sizes}
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    data["commit"] = commit
    for size_name, size in wl.sizes.items():
        refs = {}
        for seed in keys:
            graph = workloads.write_graph(wl, seed, work / "graph.json")
            result = workloads.run_call(wl, size, graph, work / "out")
            refs[workloads.reference_key(wl, seed)] = workloads.summarize(wl, result)
            print(f"{wl.name} {size_name} draw {seed}: "
                  f"{workloads.rows_of(wl, refs[workloads.reference_key(wl, seed)])} rows",
                  flush=True)
        data[size_name] = refs
    shutil.rmtree(work, ignore_errors=True)
    return data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        workloads.save_reference(workloads.reference_path(wl), record(wl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
