"""Spectral statistics: stream eigenpairs, filter the generic index set, and
test the distributional theorems empirically.

Accumulation is a plain ordered fold over the spectrum stream, so a run is
bitwise reproducible given (graph, lengths or seed, thresholds).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.stats

from . import counts as counts_mod
from . import magnetic as magnetic_mod
from . import neumann as neumann_mod
from . import spectrum as spectrum_mod
from .errors import ExcessiveExclusions, WrongFamily
from .graphs import MetricGraph, loop_chain

SLACK = 0.005            # added to every 3-sigma tolerance of the theorem tests
EXCLUSION_LIMIT = 0.05   # largest share of borderline and non-simple indices in a run
# largest share of excluded indices, for any reason, among those off loop
# states, checked after every batch.  The acceptance runs reach 0.003 at
# most, the built-in lengths of lasso 0.33 (degenerate at its loop);
# thresholds that exclude every eigenpair, or equal lengths, give 1.
EXCLUDED_SHARE_LIMIT = 0.5
HEAD_FRACTION = 0.1      # share of the star-regime records whose signatures must recur


def draw_lengths(E: int, seed: int) -> np.ndarray:
    """Stand-in for rationally independent lengths: uniform draws from [1, 2]."""
    return np.random.default_rng(seed).uniform(1.0, 2.0, E)


@dataclass
class EigenRecord:
    n: int
    k: float
    sigma: int
    omega: int
    positions: dict[int, int]        # interior vertex -> N_v (star regime only)
    capacities: dict[int, float]     # interior vertex -> rho_v
    iota: tuple[int, ...] | None

    def signature(self) -> tuple:
        pos = tuple(sorted(self.positions.items()))
        it = self.iota if self.iota is not None else ()
        return (self.sigma, self.omega, pos, it)


@dataclass
class SurplusDistribution:
    graph: MetricGraph
    K: int = 0                       # generic eigenpairs accumulated
    N_raw: int = 0                   # spectral indices processed
    joint: Counter = field(default_factory=Counter)       # (sigma, omega)
    sigma_hist: Counter = field(default_factory=Counter)
    omega_hist: Counter = field(default_factory=Counter)
    vertex_hist: dict[int, Counter] = field(default_factory=dict)
    rho_values: dict[int, list[float]] = field(default_factory=dict)
    iota_hist: dict[int, Counter] = field(default_factory=dict)
    loop_count: int = 0
    excluded: Counter = field(default_factory=Counter)
    records: list[EigenRecord] = field(default_factory=list)
    identity_failures: int = 0

    # -- moments ----------------------------------------------------------

    def _samples(self, hist: Counter) -> np.ndarray:
        return np.array([v for v, c in sorted(hist.items()) for _ in range(c)], dtype=float)

    def sigma_mean(self) -> float:
        return sum(v * c for v, c in self.sigma_hist.items()) / self.K

    def sigma_var(self) -> float:
        m = self.sigma_mean()
        return sum((v - m) ** 2 * c for v, c in self.sigma_hist.items()) / self.K

    def omega_mean(self) -> float:
        return sum(v * c for v, c in self.omega_hist.items()) / self.K

    def loop_density(self) -> float:
        return self.loop_count / self.N_raw if self.N_raw else 0.0


def run_experiment(graph: MetricGraph, K_target: int, seed: int | None = None,
                   thresholds: spectrum_mod.Thresholds = spectrum_mod.Thresholds(),
                   magnetic: bool = False,
                   check_identities: bool = False,
                   chunk: int = 512) -> SurplusDistribution:
    """Fold the eigenpair stream until K_target generic eigenpairs
    accumulate; no level past the one that gives the last of them is
    located.  `chunk` is the localization window, in mean level spacings.

    With `seed` given the edge lengths are redrawn uniformly from [1, 2];
    the run is then fully determined by (graph, seed, thresholds).  Other
    lengths are set on the graph (`MetricGraph.with_lengths`).
    """
    if seed is not None:
        graph = graph.with_lengths(draw_lengths(graph.E, seed))

    dist = SurplusDistribution(graph=graph)
    topo = graph.topology
    star_threshold = np.pi / graph.min_length
    levels = spectrum_mod.stream_levels(graph, chunk=chunk)
    size = spectrum_mod.batch_levels(graph)
    while dist.K < K_target:
        # each level gives at most one record, so a batch of at most
        # K_target - K levels locates none past the last record
        batch = list(islice(levels, min(size, K_target - dist.K)))
        for lv, ep, _, reason in spectrum_mod.eigenpairs(graph, batch, thresholds):
            dist.N_raw += lv.multiplicity
            if reason == "loop_supported":
                dist.loop_count += lv.multiplicity
                continue
            dist.loop_count += lv.loop_dims
            if reason is not None:
                dist.excluded[reason] += lv.multiplicity - lv.loop_dims
                continue

            rec_counts = counts_mod.counts(graph, ep)
            stars = {}
            if ep.k > star_threshold:
                stars = {v: neumann_mod.star_observables(graph, ep, v)
                         for v in topo.interior}
                if check_identities and not neumann_mod.local_global_check(
                        graph, ep, rec_counts, stars=stars,
                        raise_on_violation=False).ok:
                    dist.identity_failures += 1

            iota = None
            if magnetic:
                try:
                    frame = magnetic_mod.hessian_alpha(graph, ep)
                    iota = tuple(magnetic_mod.local_indices(frame))
                    if check_identities and frame.sigma_magnetic != rec_counts.sigma:
                        dist.identity_failures += 1
                except magnetic_mod.DegenerateHessian:
                    dist.excluded["degenerate_hessian"] += 1
                    continue

            dist.K += 1
            dist.joint[(rec_counts.sigma, rec_counts.omega)] += 1
            dist.sigma_hist[rec_counts.sigma] += 1
            dist.omega_hist[rec_counts.omega] += 1
            for v, (N_v, rho_v) in stars.items():
                dist.vertex_hist.setdefault(v, Counter())[N_v] += 1
                dist.rho_values.setdefault(v, []).append(rho_v)
            if iota is not None:
                for j, i_j in enumerate(iota):
                    dist.iota_hist.setdefault(j, Counter())[i_j] += 1
            dist.records.append(EigenRecord(
                n=lv.n, k=lv.k, sigma=rec_counts.sigma, omega=rec_counts.omega,
                positions={v: N_v for v, (N_v, _) in stars.items()},
                capacities={v: rho_v for v, (_, rho_v) in stars.items()}, iota=iota))
        # thresholds that exclude (nearly) every eigenpair would keep the
        # stream going forever
        excluded = sum(dist.excluded.values())
        if excluded > EXCLUDED_SHARE_LIMIT * (excluded + dist.K):
            raise ExcessiveExclusions(
                f"{excluded} of {excluded + dist.K} indices off loop states "
                f"excluded: {dict(dist.excluded)}")

    # exclusions that indicate threshold trouble: borderline cases and
    # unexplained near-degeneracies away from loop points
    suspicious = dist.excluded["borderline"] + dist.excluded["non_simple"]
    if dist.N_raw and suspicious / dist.N_raw > EXCLUSION_LIMIT:
        raise ExcessiveExclusions(
            f"{suspicious}/{dist.N_raw} suspicious exclusions: {dict(dist.excluded)}")
    return dist


# ---------------------------------------------------------------------------
# theorem tests


def symmetry_test(dist: SurplusDistribution) -> dict:
    """Joint (sigma, omega) histogram symmetry, surplus expectation
    identities, and per-vertex position symmetry."""
    topo = dist.graph.topology
    beta = topo.betti
    nb = len(topo.boundary)
    K = dist.K

    max_residual = 0.0
    cells = []
    seen = set(dist.joint) | {(beta - j, beta - nb - i) for j, i in dist.joint}
    for j, i in sorted(seen):
        p1 = dist.joint.get((j, i), 0) / K
        p2 = dist.joint.get((beta - j, beta - nb - i), 0) / K
        tol = 3.0 * np.sqrt(max(p1, p2) * (1 - max(p1, p2)) / K) + SLACK
        cells.append({"cell": (j, i), "p": p1, "partner_p": p2,
                      "residual": abs(p1 - p2), "tol": tol,
                      "ok": abs(p1 - p2) <= tol})
        max_residual = max(max_residual, abs(p1 - p2))

    sig = np.sqrt(max(dist.sigma_var(), 1e-12))
    mean_tol = 3.0 * sig / np.sqrt(K) + SLACK
    sigma_mean_ok = abs(dist.sigma_mean() - beta / 2.0) <= mean_tol
    om = dist._samples(dist.omega_hist)
    om_tol = 3.0 * float(np.std(om)) / np.sqrt(K) + SLACK
    omega_mean_ok = abs(dist.omega_mean() - (beta - nb) / 2.0) <= om_tol

    vertex = []
    for v, hist in sorted(dist.vertex_hist.items()):
        deg = dist.graph.degrees[v]
        total = sum(hist.values())
        for j in range(1, deg):
            p1 = hist.get(j, 0) / total
            p2 = hist.get(deg - j, 0) / total
            tol = 3.0 * np.sqrt(max(p1, p2) * (1 - max(p1, p2)) / total) + SLACK
            vertex.append({"vertex": v, "position": j,
                           "residual": abs(p1 - p2), "tol": tol,
                           "ok": abs(p1 - p2) <= tol})

    ok = (all(c["ok"] for c in cells) and sigma_mean_ok and omega_mean_ok
          and all(c["ok"] for c in vertex))
    return {
        "test": "symmetry",
        "ok": bool(ok),
        "joint_cells": cells,
        "max_joint_residual": max_residual,
        "sigma_mean": dist.sigma_mean(), "sigma_mean_expected": beta / 2.0,
        "sigma_mean_ok": bool(sigma_mean_ok),
        "omega_mean": dist.omega_mean(),
        "omega_mean_expected": (beta - nb) / 2.0,
        "omega_mean_ok": bool(omega_mean_ok),
        "vertex_cells": vertex,
    }


def binomial_test(dist: SurplusDistribution) -> dict:
    """Chi-square test of the exactly known surplus distributions: nodal
    surplus of a tree of cycles, shifted Neumann surplus of a (3,1)-tree."""
    topo = dist.graph.topology
    families = topo.families
    if "tree-of-cycles" in families:
        m = topo.betti
        observed = np.array([dist.sigma_hist.get(j, 0) for j in range(m + 1)])
        label = "sigma"
    elif "(3,1)-regular-tree" in families:
        m = len(topo.interior)
        shift = m + 1
        observed = np.array([dist.omega_hist.get(j - shift, 0) for j in range(m + 1)])
        label = f"omega+{shift}"
    else:
        raise WrongFamily(f"families {families} carry no binomial theorem")
    K = int(observed.sum())
    if K != dist.K:
        raise AssertionError("histogram mass escaped the binomial support")
    probs = np.array([scipy.stats.binom.pmf(j, m, 0.5) for j in range(m + 1)])
    expected = K * probs
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(scipy.stats.chi2.sf(stat, df=m))
    empirical = observed / K
    devs = np.abs(empirical - probs)
    tols = 3.0 * np.sqrt(probs * (1 - probs) / K) + SLACK
    return {
        "test": "binomial", "variable": label, "trials": m,
        "observed": observed.tolist(), "empirical": empirical.tolist(),
        "predicted": probs.tolist(), "chi_square": stat, "p_value": p_value,
        "max_probability_deviation": float(np.max(devs)),
        "ok": bool(np.all(devs <= tols)),
    }


def gaussian_limit_scan(cycle_counts=(2, 4, 8), K: int = 20000,
                        seed: int = 0) -> list[dict]:
    """Loop-chain family sweep: nodal surplus variance against the binomial
    prediction and KS distance of the standardized surplus to the normal."""
    rows = []
    for c in cycle_counts:
        g = loop_chain(c)
        dist = run_experiment(g, K, seed=seed + c)
        samples = dist._samples(dist.sigma_hist)
        mu, sd = float(np.mean(samples)), float(np.std(samples))
        ks = float(scipy.stats.kstest((samples - mu) / sd, "norm").statistic)
        rows.append({
            "betti": c,
            "K": dist.K,
            "sigma_var": dist.sigma_var(),
            "predicted_var": c / 4.0,
            "ks_distance": ks,
        })
    return rows


def signature_recurrence(dist: SurplusDistribution) -> dict:
    """Every full signature seen early should recur later in the stream.

    Records from below the star-regime threshold are a one-time transient
    (their star observables are missing), so they are skipped.
    """
    star_threshold = np.pi / dist.graph.min_length
    records = [r for r in dist.records if r.k > star_threshold]
    cut = max(1, int(len(records) * HEAD_FRACTION))
    head = {r.signature() for r in records[:cut]}
    tail = {r.signature() for r in records[cut:]}
    missing = sorted(head - tail)
    return {"head_signatures": len(head), "missing_later": missing,
            "ok": not missing}
