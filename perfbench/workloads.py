"""The benchmark's workloads: inputs from a seed, one call, and the check of
its output against the reference recorded for that input.

Every workload drives qgl only through `qgl.stats.run_experiment` or
`qgl.cli.main`, and hands the program a graph JSON file whose edge lengths
the benchmark drew itself.  The seed picks one of `BANK` length draws, so
every input the benchmark can make has a recorded reference.
"""
from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BANK = 32                 # length draws with a recorded reference per workload
K_RTOL = 1e-9             # relative agreement required of eigenvalues
MANIFOLD_ATOL = 1e-8      # bisection tolerance 1e-10 plus 12-digit CSV rounding
EXCLUSION_REASONS = ("borderline", "non_simple", "non_generic",
                     "degenerate_at_loop", "degenerate_hessian")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "stats", "spectrum" or "manifold"
    graph: str                # builtin catalog name of the topology
    sizes: dict               # size name -> parameters of one call
    magnetic: bool = False
    check_identities: bool = False
    workers: int = 1
    seeded: bool = True       # False: the output does not depend on lengths


WORKLOADS = {w.name: w for w in (
    Workload("stats-dumbbell-magnetic", "stats", "dumbbell",
             {"full": {"K": 500}, "tiny": {"K": 20, "chunk": 64}},
             magnetic=True, check_identities=True),
    Workload("stats-k6", "stats", "k6",
             {"full": {"K": 100, "chunk": 128}, "tiny": {"K": 10, "chunk": 16}}),
    Workload("spectrum-tree31-w2", "spectrum", "tree31_7",
             {"full": {"K": 1000}, "tiny": {"K": 40}}, workers=2),
    Workload("manifold-flower3", "manifold", "flower3",
             {"full": {"res": 8}, "tiny": {"res": 3}}, seeded=False),
)}


def bank_seed(seed: int) -> int:
    return seed % BANK


def draw_lengths(workload: Workload, E: int, seed: int) -> list[float]:
    """Edge lengths uniform in [1, 2], from the benchmark's own generator."""
    rng = np.random.default_rng([sum(workload.name.encode()), bank_seed(seed)])
    return [float(x) for x in rng.uniform(1.0, 2.0, E)]


def write_graph(workload: Workload, seed: int, path: Path) -> Path:
    """The seeded input graph as a qgl graph JSON file."""
    from qgl.graphs import load_graph
    base = load_graph(workload.graph).to_json()
    lengths = draw_lengths(workload, len(base["edges"]), seed)
    edges = [[u, v, length] for (u, v, _), length in zip(base["edges"], lengths)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"vertices": base["vertices"], "edges": edges}))
    return path


# ---------------------------------------------------------------------------
# one call


def run_call(workload: Workload, size: dict, graph_path: Path, out_dir: Path):
    """Run the workload once.  Returns an opaque result for `summarize`."""
    if workload.kind == "stats":
        import qgl.graphs
        import qgl.stats
        g = qgl.graphs.load_graph(graph_path)
        kw = {"chunk": size["chunk"]} if "chunk" in size else {}
        return qgl.stats.run_experiment(
            g, size["K"], magnetic=workload.magnetic,
            check_identities=workload.check_identities, **kw)
    import qgl.cli
    if workload.kind == "spectrum":
        argv = ["spectrum", "--graph", str(graph_path), "--K", str(size["K"]),
                "--workers", str(workload.workers)]
    else:
        argv = ["manifold", "--graph", str(graph_path), "--res", str(size["res"])]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = qgl.cli.main(argv + ["--out", str(out_dir)])
    if rc != 0:
        raise RuntimeError(f"qgl {argv[0]} exited with code {rc}")
    return out_dir / f"{argv[0]}.csv"


def summarize(workload: Workload, result) -> dict:
    """The parts of a call's output that the reference fixes."""
    if workload.kind == "stats":
        d = result
        return {
            "K": d.K, "N_raw": d.N_raw,
            "sigma_hist": {str(k): v for k, v in sorted(d.sigma_hist.items())},
            "omega_hist": {str(k): v for k, v in sorted(d.omega_hist.items())},
            "iota_hist": {str(j): {str(k): v for k, v in sorted(h.items())}
                          for j, h in sorted(d.iota_hist.items())},
            "excluded": {k: v for k, v in sorted(d.excluded.items()) if v},
            "identity_failures": d.identity_failures,
            "k": [r.k for r in d.records],
        }
    with open(result, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if workload.kind == "spectrum":
        return {"n": [int(r[0]) for r in rows],
                "k": [float(r[1]) for r in rows],
                "flags": ["".join(r[2:5]) for r in rows]}
    points = sorted(
        ([float(r[0]), float(r[1]), float(r[2]), r[3]] for r in rows),
        key=lambda p: (p[3], round(p[0], 6), round(p[1], 6), round(p[2], 6)))
    return {"points": points}


def rows_of(workload: Workload, summary: dict) -> int:
    """Output rows: generic eigenpair records, CSV rows, or zero-set points."""
    if workload.kind == "stats":
        return len(summary["k"])
    if workload.kind == "spectrum":
        return len(summary["n"])
    return len(summary["points"])


def _close(a: list[float], b: list[float], rtol: float = 0.0, atol: float = 0.0) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=rtol, abs_tol=atol) for x, y in zip(a, b))


def mismatches(workload: Workload, got: dict, ref: dict) -> list[str]:
    """Empty when the output agrees with the reference."""
    bad = []
    if workload.kind == "stats":
        for key in ("K", "N_raw", "sigma_hist", "omega_hist", "iota_hist", "excluded"):
            if got[key] != ref[key]:
                bad.append(f"{key}: {got[key]} != {ref[key]}")
        if got["identity_failures"] != 0:
            bad.append(f"identity_failures = {got['identity_failures']}")
        if not _close(got["k"], ref["k"], rtol=K_RTOL):
            bad.append("record k values differ")
    elif workload.kind == "spectrum":
        if got["n"] != ref["n"]:
            bad.append("spectral indices differ")
        if got["flags"] != ref["flags"]:
            bad.append("simple/generic/loop flags differ")
        if not _close(got["k"], ref["k"], rtol=K_RTOL):
            bad.append("k values differ")
    else:
        g, r = got["points"], ref["points"]
        if len(g) != len(r):
            bad.append(f"{len(g)} points != {len(r)}")
        elif {p[3] for p in g} != {p[3] for p in r}:
            bad.append("component sets differ")
        elif any(p[3] != q[3] or not _close(p[:3], q[:3], atol=MANIFOLD_ATOL)
                 for p, q in zip(g, r)):
            bad.append("points differ")
    return bad


# ---------------------------------------------------------------------------
# reference files


def reference_key(workload: Workload, seed: int) -> str:
    return str(bank_seed(seed)) if workload.seeded else "any"


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json.gz"


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, separators=(",", ":")).encode())
