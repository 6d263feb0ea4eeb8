"""Spectral statistics: stream eigenpairs, filter the generic index set, and
test the distributional theorems empirically.

Accumulation is a plain ordered fold over the spectrum stream, so a run is
bitwise reproducible given (graph, lengths or seed, thresholds).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from . import counts as counts_mod
from . import magnetic as magnetic_mod
from . import neumann as neumann_mod
from . import spectrum as spectrum_mod
from .errors import ExcessiveExclusions, IdentityViolated, WrongFamily
from .graphs import MetricGraph, loop_chain
from .secular import stack_size

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
    # what the localization walk did
    tally: spectrum_mod.WalkTally = field(default_factory=spectrum_mod.WalkTally)
    worst_residual: float = 0.0   # largest |a - U(k) a| (or imaginary trace part)

    def report(self) -> dict:
        """The run report: the walk's tallies and the worst eigenpair residual."""
        return {**self.tally.to_json(), "worst_residual": self.worst_residual}

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
    accumulate.  One walk (`spectrum.Walk`) is asked for the levels holding
    the K_target - K eigenvalues still needed, which are reconstructed and
    folded in `batches` of `stack_size` levels as the walk's sweeps yield
    them, so no level past the one that gives the last record is located,
    and thresholds that exclude nearly everything end the run after the
    first batch.  Only a magnetic run asks the walk for the flux couplings
    its indices are read from.  The walk's tallies are kept on `tally`, and
    the largest eigenpair residual on `worst_residual`.  `chunk` has no
    effect: the lanes are set by the constants of `spectrum`.

    With `seed` given the edge lengths are redrawn uniformly from [1, 2];
    the run is then fully determined by (graph, seed, thresholds).  Other
    lengths are set on the graph (`MetricGraph.with_lengths`).
    """
    if seed is not None:
        graph = graph.with_lengths(draw_lengths(graph.E, seed))

    walk = spectrum_mod.Walk(graph, couplings=magnetic)
    dist = SurplusDistribution(graph=graph, tally=walk.tally)
    while dist.K < K_target:
        # each level gives at most one record, so the levels holding the
        # next K_target - K eigenvalues locate none past the last record
        blocks = walk.take(K_target - dist.K)
        for batch in spectrum_mod.batches(blocks, stack_size(graph)):
            _fold_levels(dist, batch, thresholds, magnetic, check_identities)

    # exclusions that indicate threshold trouble: borderline cases and
    # unexplained near-degeneracies away from loop points
    suspicious = dist.excluded["borderline"] + dist.excluded["non_simple"]
    if dist.N_raw and suspicious / dist.N_raw > EXCLUSION_LIMIT:
        raise ExcessiveExclusions(
            f"{suspicious}/{dist.N_raw} suspicious exclusions: {dict(dist.excluded)}")
    return dist


def _fold_levels(dist: SurplusDistribution, batch: spectrum_mod.Levels,
                 thresholds: spectrum_mod.Thresholds, magnetic: bool,
                 check_identities: bool):
    """Reconstruct, classify and fold one batch of located levels."""
    out = spectrum_mod.eigenpairs(dist.graph, batch, thresholds)
    dist.N_raw += int(np.sum(batch.multiplicity))
    # a loop-supported level holds loop states alone (loop_dims = multiplicity)
    dist.loop_count += int(np.sum(batch.loop_dims))
    dist.worst_residual = float(np.max(out.eigenpairs.residual, initial=dist.worst_residual))
    tallied = np.not_equal(out.reason, None) & (out.reason != "loop_supported")
    # reasons tallied in the order they first occur, as the summary lists them
    for reason in dict.fromkeys(out.reason[tallied].tolist()):
        dist.excluded[reason] += int(np.sum((batch.multiplicity - batch.loop_dims)
                                            [out.reason == reason]))
    _fold(dist, out.eigenpairs[np.equal(out.reason, None)[batch.kept]], magnetic,
          check_identities)
    # thresholds that exclude (nearly) every eigenpair would keep the
    # stream going forever
    excluded = sum(dist.excluded.values())
    if excluded > EXCLUDED_SHARE_LIMIT * (excluded + dist.K):
        raise ExcessiveExclusions(
            f"{excluded} of {excluded + dist.K} indices off loop states "
            f"excluded: {dict(dist.excluded)}")


def _fold(dist: SurplusDistribution, eps: spectrum_mod.Eigenpairs, magnetic: bool,
          check_identities: bool):
    """Add a block of generic eigenpairs to `dist`, each layer (counts, star
    observables, magnetic indices) and each tally computed over the whole
    block; an eigenpair with a degenerate flux Hessian is excluded alone."""
    graph = dist.graph
    interior = graph.topology.interior
    c = counts_mod.counts_batch(graph, eps)
    regime = c.k > graph.star_threshold
    N = np.zeros((len(eps), len(interior)), dtype=int)
    rho = np.zeros(N.shape)
    N[regime], rho[regime] = neumann_mod.stars_batch(graph, eps[regime])
    if check_identities:
        rules = neumann_mod.sum_rules(graph, counts_mod.Counts(*(x[regime] for x in c)),
                                      N[regime], rho[regime])
        dist.identity_failures += int(np.count_nonzero(~rules.ok))

    keep = np.ones(len(eps), dtype=bool)
    iotas = [None] * len(eps)
    if magnetic:
        m = magnetic_mod.indices_batch(graph, eps)
        keep = ~m.degenerate
        if check_identities:
            dist.identity_failures += int(np.count_nonzero(keep & (m.sigma != c.sigma)))
        if not np.all(keep):
            dist.excluded["degenerate_hessian"] += int(np.count_nonzero(~keep))
        iotas = list(map(tuple, m.iota[keep].tolist()))
        if iotas:
            for j, column in enumerate(m.iota[keep].T.tolist()):
                dist.iota_hist.setdefault(j, Counter()).update(column)

    sigma, omega = c.sigma[keep].tolist(), c.omega[keep].tolist()
    dist.K += len(sigma)
    dist.joint.update(zip(sigma, omega))
    dist.sigma_hist.update(sigma)
    dist.omega_hist.update(omega)
    stars = keep & regime
    if np.any(stars):
        for j, v in enumerate(interior):
            dist.vertex_hist.setdefault(v, Counter()).update(N[stars, j].tolist())
            dist.rho_values.setdefault(v, []).extend(rho[stars, j].tolist())
    dist.records += [
        EigenRecord(n=n, k=k, sigma=s, omega=o,
                    positions=dict(zip(interior, N_row)) if star else {},
                    capacities=dict(zip(interior, rho_row)) if star else {}, iota=iota)
        for n, k, s, o, N_row, rho_row, star, iota in zip(
            c.n[keep].tolist(), c.k[keep].tolist(), sigma, omega, N[keep].tolist(),
            rho[keep].tolist(), regime[keep].tolist(), iotas)]


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
        raise IdentityViolated(
            f"{K} of {dist.K} records fall in the binomial support 0..{m} of {label}")
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
    star_threshold = dist.graph.star_threshold
    records = [r for r in dist.records if r.k > star_threshold]
    cut = max(1, int(len(records) * HEAD_FRACTION))
    head = {r.signature() for r in records[:cut]}
    tail = {r.signature() for r in records[cut:]}
    missing = sorted(head - tail)
    return {"head_signatures": len(head), "missing_later": missing,
            "ok": not missing}
