"""Command line front end.

Exit codes: 0 success, 2 invalid input or graph, 3 a requested assertion
failed, 4 a computation failed one of its own checks (an audit, an identity,
a kernel, a Hessian, an undecided count or the exclusion limit) or a linear
algebra routine failed.  Results go
to --out as CSV or JSON; a short summary goes to stdout.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import counts as counts_mod
from . import magnetic as magnetic_mod
from . import neumann as neumann_mod
from . import stats as stats_mod
from . import spectrum as spectrum_mod
from .errors import ComputationFailed, DegenerateHessian, QGLError
from .graphs import load_graph
from .secular import sample_manifold

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ASSERT = 3
EXIT_COMPUTATION = 4


# ---------------------------------------------------------------------------
# output helpers


def _write_rows(out_dir: Path, name: str, fmt: str, header: list[str],
                rows: list[list]) -> Path:
    if fmt == "json":
        return _write_json(out_dir, name, [dict(zip(header, r)) for r in rows])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _write_json(out_dir: Path, name: str, obj) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, default=float)
        fh.write("\n")
    return path


def _fmt_k(k: float) -> str:
    return f"{k:.12g}"


# ---------------------------------------------------------------------------
# subcommands


def _batches(args, graph, thresholds, couplings=False):
    return spectrum_mod.stream_batches(
        graph, count=args.K, k_max=args.kmax, thresholds=thresholds,
        workers=args.workers, couplings=couplings)


def _generic(batch) -> tuple[list, int]:
    """The (level, eigenpair) pairs of the generic items of a batch, and the
    number of eigenvalues skipped."""
    kept = [(lv, ep) for lv, ep, generic, _ in batch if generic]
    skipped = sum(lv.multiplicity for lv, _, generic, _ in batch if not generic)
    return kept, skipped


def cmd_spectrum(args, graph, thresholds, out_dir) -> int:
    rows = []
    for lv, _, generic, _ in chain.from_iterable(_batches(args, graph, thresholds)):
        for j in range(lv.multiplicity):
            bits = (lv.multiplicity == 1, generic, j < lv.loop_dims)
            rows.append([lv.n + j, _fmt_k(lv.k), *map(int, bits)])
    path = _write_rows(out_dir, "spectrum", args.format,
                       ["n", "k", "simple", "generic", "loop_supported"], rows)
    total = len(rows)
    generic_n = sum(int(r[3]) for r in rows)
    loops_n = sum(int(r[4]) for r in rows)
    span = f", k in (0, {rows[-1][1]}]" if rows else ""
    print(f"graph: V={graph.V} E={graph.E} betti={graph.topology.betti} "
          f"families={list(graph.topology.families)}")
    print(f"eigenvalues: {total} located{span}")
    print(f"generic: {generic_n}  loop-supported: {loops_n}  "
          f"other: {total - generic_n - loops_n}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_counts(args, graph, thresholds, out_dir) -> int:
    rows, skipped = [], 0
    for batch in _batches(args, graph, thresholds):
        kept, skip = _generic(batch)
        skipped += skip
        if not kept:
            continue
        c = counts_mod.counts_batch(graph, [ep for _, ep in kept])
        rows += [[lv.n, _fmt_k(lv.k), *rec] for (lv, _), rec in
                 zip(kept, np.stack([c.phi, c.mu, c.sigma, c.omega], axis=1).tolist())]
    path = _write_rows(out_dir, "counts", args.format,
                       ["n", "k", "phi", "mu", "sigma", "omega"], rows)
    print(f"counts for {len(rows)} generic eigenpairs ({skipped} skipped)")
    if rows:
        sig = [r[4] for r in rows]
        om = [r[5] for r in rows]
        print(f"mean sigma {np.mean(sig):.4f}  mean omega {np.mean(om):.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_domains(args, graph, thresholds, out_dir) -> int:
    star_threshold = graph.star_threshold
    rows, skipped = [], 0
    for lv, ep, generic, _ in chain.from_iterable(_batches(args, graph, thresholds)):
        if not generic or lv.k <= star_threshold:
            skipped += lv.multiplicity
            continue
        part = neumann_mod.partition(graph, ep)
        for v in sorted(part.stars):
            s = part.stars[v]
            rows.append([lv.n, v, s.N, f"{s.rho:.12g}"])
    path = _write_rows(out_dir, "domains", args.format,
                       ["n", "vertex", "N_v", "rho_v"], rows)
    print(f"star observables for {len(set(r[0] for r in rows))} eigenpairs "
          f"above k = {star_threshold:.4g} ({skipped} skipped)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_magnetic(args, graph, thresholds, out_dir) -> int:
    n_blocks = sum(1 for b in graph.topology.blocks if b.betti > 0)
    header = (["n", "k", "sigma_counting", "sigma_magnetic"]
              + [f"iota_{j + 1}" for j in range(n_blocks)])
    rows, skipped, agree = [], 0, True
    for batch in _batches(args, graph, thresholds, couplings=True):
        kept, skip = _generic(batch)
        skipped += skip
        if not kept:
            continue
        eps = [ep for _, ep in kept]
        c = counts_mod.counts_batch(graph, eps)
        m = magnetic_mod.indices_batch(graph, eps)
        if np.any(m.degenerate):
            raise DegenerateHessian(
                f"{eps[int(np.argmax(m.degenerate))].label()}: degenerate flux Hessian")
        agree = agree and bool(np.all(m.sigma == c.sigma))
        rows += [[lv.n, _fmt_k(lv.k), sigma, sigma_m] + iota for (lv, _), sigma, sigma_m, iota
                 in zip(kept, c.sigma.tolist(), m.sigma.tolist(), m.iota.tolist())]
    path = _write_rows(out_dir, "magnetic", args.format, header, rows)
    print(f"magnetic indices for {len(rows)} generic eigenpairs "
          f"({skipped} skipped); counting/magnetic agree: {agree}")
    print(f"wrote {path}")
    if "agreement" in args.asserts and not agree:
        print("ASSERT agreement: FAIL", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def cmd_stats(args, graph, thresholds, out_dir) -> int:
    dist = stats_mod.run_experiment(
        graph, args.K, seed=args.seed, thresholds=thresholds,
        magnetic=args.magnetic, check_identities=True)
    rows = [[r.n, _fmt_k(r.k), r.sigma, r.omega] for r in dist.records]
    path = _write_rows(out_dir, "stats", args.format,
                       ["n", "k", "sigma", "omega"], rows)

    summary = {
        "graph": graph.to_json(),
        "families": list(graph.topology.families),
        "K": dist.K, "N_raw": dist.N_raw,
        "loop_density": dist.loop_density(),
        "excluded": dict(dist.excluded),
        "identity_failures": dist.identity_failures,
        "sigma_hist": {str(k): v for k, v in sorted(dist.sigma_hist.items())},
        "omega_hist": {str(k): v for k, v in sorted(dist.omega_hist.items())},
        "sigma_mean": dist.sigma_mean(), "sigma_var": dist.sigma_var(),
        "omega_mean": dist.omega_mean(),
        # what the localization walk and the reconstruction did
        "report": dist.report(),
    }
    reports = {name: STATS_TESTS[name](dist) for name in args.asserts}
    summary["tests"] = reports
    spath = _write_json(out_dir, "stats_summary", summary)

    print(f"{dist.K} generic eigenpairs out of {dist.N_raw} indices "
          f"(loop density {dist.loop_density():.4f})")
    print(f"mean sigma {dist.sigma_mean():.4f}  var {dist.sigma_var():.4f}  "
          f"mean omega {dist.omega_mean():.4f}")
    for name, rep in reports.items():
        print(f"ASSERT {name}: {'ok' if rep['ok'] else 'FAIL'}")
    print(f"wrote {path} and {spath}")
    return EXIT_OK if all(rep["ok"] for rep in reports.values()) else EXIT_ASSERT


def cmd_manifold(args, graph, thresholds, out_dir) -> int:
    rows = [[f"{k1:.12g}", f"{k2:.12g}", f"{k3:.12g}", comp]
            for k1, k2, k3, comp in sample_manifold(graph, resolution=args.res)]
    path = _write_rows(out_dir, "manifold", args.format,
                       ["k1", "k2", "k3", "component"], rows)
    comps = sorted({r[3] for r in rows})
    print(f"{len(rows)} zero-set points on [0, 2pi)^3, components: {comps}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


STATS_TESTS = {"symmetry": stats_mod.symmetry_test,
               "binomial": stats_mod.binomial_test,
               "recurrence": stats_mod.signature_recurrence}
ASSERTIONS = {"stats": tuple(STATS_TESTS), "magnetic": ("agreement",)}


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qgl",
        description="Spectra, eigenfunctions, nodal and Neumann statistics "
                    "of metric graphs with standard vertex conditions.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spectral=True, kmax=True, workers=True):
        sp.add_argument("--graph", required=True,
                        help="graph JSON file or builtin graph name")
        if spectral:
            g = sp.add_mutually_exclusive_group(required=not kmax)
            g.add_argument("--K", "--count", dest="K", type=positive_int,
                           help="number of eigenvalues to locate")
            if kmax:
                g.add_argument("--kmax", type=finite_float,
                               help="locate all eigenvalues up to this k")
            sp.add_argument("--seed", type=int, default=None,
                            help="redraw edge lengths uniformly from [1, 2]")
            sp.add_argument("--thresholds", default=None,
                            help="JSON object overriding classification thresholds")
        if workers:
            sp.add_argument("--workers", type=positive_int,
                            default=os.environ.get("QGL_WORKERS", "1"))
        sp.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--assert", dest="asserts", default="",
                        help="comma separated checks; nonzero exit on failure")

    common(sub.add_parser("spectrum", help="locate and classify eigenvalues"))
    common(sub.add_parser("counts", help="nodal and Neumann counts"))
    common(sub.add_parser("domains", help="Neumann domain observables"))
    common(sub.add_parser("magnetic", help="magnetic stability indices"))
    # stats and manifold run single-process; the manifold depends on the
    # topology alone and classifies nothing, so it takes no lengths or thresholds
    sp = sub.add_parser("stats", help="surplus distribution experiment")
    common(sp, kmax=False, workers=False)
    sp.add_argument("--magnetic", action="store_true",
                    help="also accumulate local magnetic indices")
    sp = sub.add_parser("manifold", help="sample the secular zero set (E = 3)")
    common(sp, spectral=False, workers=False)
    sp.add_argument("--res", type=positive_int, default=60,
                    help="grid resolution")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.asserts = [s for s in args.asserts.split(",") if s]
    accepted = ASSERTIONS.get(args.command, ())
    unknown = [name for name in args.asserts if name not in accepted]
    if unknown:
        print(f"error: unknown assertion '{unknown[0]}' for {args.command} "
              f"(accepted: {', '.join(accepted) or 'none'})", file=sys.stderr)
        return EXIT_INVALID
    if getattr(args, "K", None) is None and getattr(args, "kmax", None) is None \
            and args.command != "manifold":
        print("error: one of --K, --kmax is required", file=sys.stderr)
        return EXIT_INVALID
    try:
        graph = load_graph(args.graph)
        seed = getattr(args, "seed", None)
        if seed is not None and args.command != "stats":
            graph = graph.with_lengths(stats_mod.draw_lengths(graph.E, seed))
        overrides = getattr(args, "thresholds", None)
        thresholds = spectrum_mod.Thresholds.from_dict(
            json.loads(overrides) if overrides else None)
        handler = {
            "spectrum": cmd_spectrum, "counts": cmd_counts,
            "domains": cmd_domains, "magnetic": cmd_magnetic,
            "stats": cmd_stats, "manifold": cmd_manifold,
        }[args.command]
        return handler(args, graph, thresholds, args.out)
    except np.linalg.LinAlgError as exc:
        # a ValueError, but raised by the arithmetic, not by the input
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except (QGLError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ComputationFailed):
            return EXIT_COMPUTATION
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
