"""Per-layer metrics computed from a traced run.

Times are per traced call (seconds of one call at the workload's size).
Counts and ratios repeat exactly for a given input.
"""
from __future__ import annotations

from tracing import LAYERS
from workloads import EXCLUSION_REASONS

# name, unit, better; README.md gives each one's base and the end-to-end
# metric it should move
METRICS = [
    ("spectrum.counting.calls_per_level", "count", "lower"),
    ("spectrum.counting.self_s", "s", "lower"),
    ("spectrum.umatrix_per_level", "count", "lower"),
    ("spectrum.locate_spectrum.self_s", "s", "lower"),
    ("spectrum.locate_spectrum.raised", "count", "lower"),
    ("spectrum.eigenfunction_at.self_s", "s", "lower"),
    ("spectrum.classify.self_s", "s", "lower"),
    ("spectrum.levels_located", "count", "lower"),
    ("magnetic.magnetic_secular.calls_per_eigenpair", "count", "lower"),
    ("magnetic.hessian_alpha.self_s", "s", "lower"),
    ("magnetic.local_indices.self_s", "s", "lower"),
    ("magnetic.hessian_alpha.raised", "count", "lower"),
    ("secular.evaluate.calls_per_row", "count", "lower"),
    ("secular.evaluate.self_s", "s", "lower"),
    ("secular.bond_scattering.calls_per_row", "count", "lower"),
    ("counts.counts.self_s", "s", "lower"),
    ("neumann.star_observables.self_s", "s", "lower"),
    ("neumann.star_observables.calls_per_eigenpair", "count", "lower"),
    ("stats.levels_located_per_consumed", "count", "lower"),
    *((f"stats.excluded.{r}", "count", "lower") for r in EXCLUSION_REASONS),
    ("stats.run_experiment.self_s", "s", "lower"),
    ("cli.locate_parallel.total_s", "s", "lower"),
    ("cli.levels_located_per_kept", "count", "lower"),
    ("cli.topup_calls", "count", "lower"),
    ("cli.write_rows.self_s", "s", "lower"),
    ("graphs.load_graph.s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead", "s", "lower"),
]


def per_layer(agg: dict, items: dict, summaries: list, overhead: float) -> dict:
    """Metric name -> (value, unit) from aggregated spans of the traced calls.

    `summaries` holds (rows, output summary) of each traced call."""
    n = max(1, len(summaries))
    rows = sum(r for r, _ in summaries) or 1
    levels = items.get("spectrum.locate_spectrum", 0)
    kept = items.get("cli.locate_parallel", 0)
    n_raw = sum(s.get("N_raw", 0) for _, s in summaries)

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def per_call(name, field="self_s"):
        return get(name, field) / n

    sites = get("secular.evolution_matrix", "sites") or {}
    parents = get("spectrum.locate_spectrum", "parents") or {}
    values = {
        "spectrum.counting.calls_per_level": get("spectrum.counting", "calls") / max(1, levels),
        "spectrum.counting.self_s": per_call("spectrum.counting"),
        "spectrum.umatrix_per_level": sites.get("spectrum", 0) / max(1, levels),
        "spectrum.locate_spectrum.self_s": per_call("spectrum.locate_spectrum"),
        "spectrum.locate_spectrum.raised": per_call("spectrum.locate_spectrum", "raised"),
        "spectrum.eigenfunction_at.self_s": per_call("spectrum.eigenfunction_at"),
        "spectrum.classify.self_s": per_call("spectrum.classify"),
        "spectrum.levels_located": levels / n,
        "magnetic.magnetic_secular.calls_per_eigenpair":
            get("magnetic.magnetic_secular", "calls") / rows,
        "magnetic.hessian_alpha.self_s": per_call("magnetic.hessian_alpha"),
        "magnetic.local_indices.self_s": per_call("magnetic.local_indices"),
        "magnetic.hessian_alpha.raised": per_call("magnetic.hessian_alpha", "raised"),
        "secular.evaluate.calls_per_row": get("secular.evaluate", "calls") / rows,
        "secular.evaluate.self_s": per_call("secular.evaluate"),
        "secular.bond_scattering.calls_per_row": get("secular.bond_scattering", "calls") / rows,
        "counts.counts.self_s": per_call("counts.counts"),
        "neumann.star_observables.self_s": per_call("neumann.star_observables"),
        "neumann.star_observables.calls_per_eigenpair":
            get("neumann.star_observables", "calls") / rows,
        "stats.levels_located_per_consumed": levels / n_raw if n_raw else 0.0,
        "stats.run_experiment.self_s": per_call("stats.run_experiment"),
        "cli.locate_parallel.total_s": per_call("cli.locate_parallel", "total_s"),
        "cli.levels_located_per_kept": levels / kept if kept else 0.0,
        "cli.topup_calls": parents.get("cli.locate_parallel", 0) / n,
        "cli.write_rows.self_s": per_call("cli._write_rows"),
        "graphs.load_graph.s": per_call("graphs.load_graph", "total_s"),
        "trace.overhead": overhead,
    }
    for r in EXCLUSION_REASONS:
        values[f"stats.excluded.{r}"] = sum(
            s.get("excluded", {}).get(r, 0) for _, s in summaries) / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            a["self_s"] for name, a in agg.items() if name.split(".")[0] == layer) / n
    return {name: (float(values[name]), unit) for name, unit, _ in METRICS}
