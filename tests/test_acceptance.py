"""End-to-end acceptance runs.

Each test prints one PASS line on success; the big experiment runs are shared
module-scoped fixtures, so the whole file costs a few minutes.
"""
import time

import numpy as np
import pytest
import scipy.stats

from qgl.counts import counts
from qgl.graphs import load_graph, loop_chain
from qgl.secular import (
    bridge_extension,
    bridge_factorization,
    evaluate,
    evolution_matrix,
    inversion,
    root_branch,
)
from qgl.spectrum import classify, counting, eigenfunction_at, locate_spectrum
from qgl.stats import binomial_test, run_experiment, symmetry_test
from conftest import (
    count_extrema_sampled,
    count_zeros_sampled,
    star_relation_roots,
)

BIG_K = 20000

# seeds drawing comfortably incommensurate lengths for the 2e4-eigenpair runs
RUN_SPECS = {
    "dumbbell": ("dumbbell", 101, True),
    "k4": ("k4", 236, True),
    "lasso": ("lasso", 303, True),
    "tree31": ("tree31_7", 236, True),
    "star3": ("star3", 505, False),
}


@pytest.fixture(scope="module")
def big_runs():
    out = {}
    for key, (name, seed, magnetic) in RUN_SPECS.items():
        g = load_graph(name)
        out[key] = run_experiment(g, BIG_K, seed=seed, magnetic=magnetic,
                                  check_identities=True)
    return out


def _report(name):
    print(f"\nPASS {name}")


# ---------------------------------------------------------------------------
# 1. spectral correctness against the independent star-relation oracle


def test_criterion_1_spectral_correctness(star3):
    t0 = time.time()
    levels = locate_spectrum(star3, count=200)
    elapsed = time.time() - t0
    ours = [lv.k for lv in levels for _ in range(lv.multiplicity)][:200]
    oracle = star_relation_roots([1.0, 1.3, 1.7], [], ours[-1] + 0.5)[:200]
    assert len(oracle) == 200
    for a, b in zip(ours, oracle):
        assert abs(a - b) <= 1e-9 * max(1.0, b)
    # the counting function confirms nothing was missed
    n_at_end = int(round(counting(star3, ours[-1] + 1e-6).N))
    assert n_at_end == 200
    assert elapsed < 30.0
    _report(f"criterion 1: 200 eigenvalues match oracle to 1e-9 "
            f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. closed-form counts equal dense-sampling counts


def test_criterion_2_sampled_counts():
    rng = np.random.default_rng(0)
    checked = 0
    for name in ("star3", "lasso", "dumbbell", "mandarin3", "k4"):
        g = load_graph(name)
        pool = []
        for lv in locate_spectrum(g, count=120):
            if lv.multiplicity != 1 or lv.loop_dims:
                continue
            ep = eigenfunction_at(g, lv.k, n=lv.n)
            if classify(g, ep).generic:
                pool.append(ep)
        picks = rng.choice(len(pool), size=20, replace=False)
        for idx in picks:
            ep = pool[idx]
            rec = counts(g, ep)
            phi = sum(count_zeros_sampled(g, ep, i) for i in range(g.E))
            mu = sum(count_extrema_sampled(g, ep, i) for i in range(g.E))
            assert (rec.phi, rec.mu) == (phi, mu), (name, ep.n)
            checked += 1
    assert checked == 100
    _report("criterion 2: closed-form phi, mu equal sampling on 100 eigenpairs")


# ---------------------------------------------------------------------------
# 3. hard bounds at scale


def test_criterion_3_hard_bounds(big_runs):
    for key in ("dumbbell", "k4", "lasso", "tree31"):
        dist = big_runs[key]
        g = dist.graph
        beta = g.topology.betti
        nb = len(g.topology.boundary)
        assert dist.K >= BIG_K
        assert all(0 <= s <= beta for s in dist.sigma_hist)
        assert all(1 - beta - nb <= w <= 2 * beta - 1 for w in dist.omega_hist)
        for v, hist in dist.vertex_hist.items():
            deg = g.degrees[v]
            assert all(1 <= j <= deg - 1 for j in hist)
            assert np.all(np.array(dist.rho_values[v]) >= 1.0 - 1e-6)
        for r in dist.records:
            for v, j in r.positions.items():
                rho = r.capacities[v]
                deg = g.degrees[v]
                assert (j + 1) / 2 - 1e-6 <= rho <= (j + deg - 1) / 2 + 1e-6
    _report(f"criterion 3: zero bound violations over 4 x {BIG_K} eigenpairs")


# ---------------------------------------------------------------------------
# 4. exact identities at scale


def test_criterion_4_identities(big_runs):
    for key in ("dumbbell", "k4", "lasso", "tree31"):
        dist = big_runs[key]
        assert dist.identity_failures == 0, key
        degenerate = dist.excluded.get("degenerate_hessian", 0)
        assert degenerate <= 0.001 * dist.K, key
    _report("criterion 4: count/star/magnetic identities hold with zero "
            "violations")


# ---------------------------------------------------------------------------
# 5. binomial theorems


def test_criterion_5_binomial_theorems(big_runs):
    d = big_runs["dumbbell"]
    probs = [d.sigma_hist.get(j, 0) / d.K for j in range(3)]
    for p_hat, p in zip(probs, (0.25, 0.5, 0.25)):
        assert abs(p_hat - p) <= 0.02
    rep = binomial_test(d)
    assert rep["p_value"] > 0.001

    s = big_runs["star3"]
    p_minus2 = s.omega_hist.get(-2, 0) / s.K
    assert abs(p_minus2 - 0.5) <= 0.02

    t = big_runs["tree31"]
    rep_t = binomial_test(t)
    assert rep_t["variable"] == "omega+4"
    assert rep_t["p_value"] > 0.001
    _report(f"criterion 5: dumbbell sigma ~ Bin(2,1/2) "
            f"(p={rep['p_value']:.3f}), star3 P(omega=-2)={p_minus2:.3f}, "
            f"(3,1)-tree omega+4 ~ Bin(3,1/2) (p={rep_t['p_value']:.3f})")


# ---------------------------------------------------------------------------
# 6. symmetry, expectations, joint support


def test_criterion_6_symmetry_and_support(big_runs):
    d = big_runs["k4"]
    assert abs(d.sigma_mean() - 1.5) <= 0.03
    rep = symmetry_test(d)
    assert all(c["ok"] for c in rep["joint_cells"])

    g6 = load_graph("k6")
    d6 = run_experiment(g6, 4000, seed=606)
    support = set(d6.joint)
    si = sorted({s for s, _ in support})
    wi = sorted({w for _, w in support})
    box = {(s, w) for s in range(si[0], si[-1] + 1)
           for w in range(wi[0], wi[-1] + 1)}
    missing = box - support
    corners = {(si[0], wi[0]), (si[0], wi[-1]), (si[-1], wi[0]),
               (si[-1], wi[-1])}
    # the occupied region is far from filling its bounding box: the box
    # corners stay empty and a large share of box cells never occur
    assert corners <= missing, "box corners are occupied"
    assert len(missing) >= 0.15 * len(box), "joint support looks rectangular"
    _report(f"criterion 6: E(sigma)={d.sigma_mean():.4f}, joint symmetry ok, "
            f"K6 support non-rectangular ({len(missing)}/{len(box)} "
            f"empty box cells)")


# ---------------------------------------------------------------------------
# 7. loop density


def test_criterion_7_loop_density(lasso):
    dist = run_experiment(lasso, 10200)
    assert dist.N_raw >= 20000
    dens = dist.loop_density()
    assert abs(dens - 0.25) <= 0.015
    _report(f"criterion 7: lasso loop density {dens:.4f} "
            f"(target 0.25, N_raw={dist.N_raw})")


# ---------------------------------------------------------------------------
# 8. secular-core properties


def test_criterion_8_secular_properties():
    rng = np.random.default_rng(8)
    for name in ("star3", "lasso", "dumbbell", "mandarin3", "k4"):
        g = load_graph(name)
        sign = (-1.0) ** (g.topology.betti - 1)
        bridges = g.topology.bridges
        for _ in range(1000):
            kappa = rng.uniform(0, 2 * np.pi, g.E)
            ev = evaluate(g, kappa)
            scale = max(1.0, abs(ev.F))
            assert ev.imag_residual <= 1e-9 * scale
            f_inv = evaluate(g, inversion(kappa)).F
            assert abs(f_inv - sign * ev.F) <= 1e-8 * scale
            if bridges:
                b = bridges[0]
                f_ext = evaluate(g, bridge_extension(g, kappa, b)).F
                assert abs(f_ext + ev.F) <= 1e-8 * scale
                fac = bridge_factorization(g, b, kappa)
                full = root_branch(g, kappa) * np.linalg.det(
                    np.eye(2 * g.E) - evolution_matrix(g, kappa))
                assert abs(fac.secular_value(kappa[b]) - full) <= 1e-8 * scale
                assert abs(abs(fac.phase1) - 1.0) <= 1e-10
                assert abs(abs(fac.phase2) - 1.0) <= 1e-10
    _report("criterion 8: F real, inversion and half-turn symmetries, bridge "
            "factorization over 5 x 1000 random points")


# ---------------------------------------------------------------------------
# 9. Gaussian trend along the cycle-chain family


def test_criterion_9_gaussian_trend():
    ks = []
    for c in (2, 4, 8):
        g = loop_chain(c)
        dist = run_experiment(g, BIG_K, seed=900 + c)
        var = dist.sigma_var()
        # 3-sigma band for the variance estimator under Bin(c, 1/2) moments
        mu4 = c * (3 * c - 2) / 16.0
        sd = np.sqrt((mu4 - (c / 4.0) ** 2) / dist.K)
        assert abs(var - c / 4.0) <= 3.0 * sd + 0.02, (c, var)
        samples = np.array([v for v, n in sorted(dist.sigma_hist.items())
                            for _ in range(n)], dtype=float)
        std = (samples - samples.mean()) / samples.std()
        ks.append(float(scipy.stats.kstest(std, "norm").statistic))
    assert ks[0] > ks[1] > ks[2], ks
    _report(f"criterion 9: Var(sigma) tracks beta/4 and KS distances "
            f"decrease: {[round(x, 4) for x in ks]}")
