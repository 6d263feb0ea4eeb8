"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, at the tiny size: a plain run and a traced run must each
print, as their last line, a result naming exactly the metrics BENCHMARK.json
lists, with their units, and no failed call; a run against a reference with
one eigenvalue (or manifold point) moved must count a failed call.  Finally a
run in a directory holding only BENCHMARK.json and the benchmark's files must
exit non-zero without printing a result.  Exits non-zero on any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORK = HERE / "out" / "selftest"


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def perturbed_reference(wl: workloads.Workload, seed: int) -> Path:
    """The recorded reference with one value of the tiny-size entry moved
    well beyond the tolerance the check allows."""
    data = workloads.load_reference(workloads.reference_path(wl))
    entry = data["tiny"][workloads.reference_key(wl, seed)]
    if wl.kind == "manifold":
        entry["points"][0][0] += 1e-6
    else:
        entry["k"][0] *= 1 + 1e-7
    path = WORK / f"{wl.name}-perturbed.json.gz"
    workloads.save_reference(path, data)
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    WORK.mkdir(parents=True, exist_ok=True)
    seed = 0
    for name, wl in workloads.WORKLOADS.items():
        common = ["--workload", name, "--seed", str(seed), "--seconds", "1",
                  "--size", "tiny"]
        for trace in (0, 1):
            rc, out = run(common + ["--trace", str(trace)])
            res = result_of(out) if rc == 0 else {}
            units = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            if rc != 0 or not res.get("correct") or units != expected[trace]:
                failures.append(f"{name} trace {trace}: rc {rc}, result {res}")
            elif any(not isinstance(v["value"], (int, float))
                     for v in res["metrics"].values()):
                failures.append(f"{name} trace {trace}: non-numeric value")
        rc, out = run(common + ["--trace", "0", "--reference",
                                str(perturbed_reference(wl, seed))])
        res = result_of(out) if rc == 0 else {}
        if rc != 0 or res.get("correct") is not False or not res.get("failed"):
            failures.append(f"{name}: perturbed reference not detected: rc {rc}, {res}")
        print(f"{name}: checked", flush=True)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    rc, out = run(["--workload", "stats-k6", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
    if rc == 0 or '"correct"' in out:
        failures.append(f"run without sources: rc {rc}, stdout {out!r}")
    shutil.rmtree(WORK, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
