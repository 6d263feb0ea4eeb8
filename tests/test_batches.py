"""The stacked fold of a batch of eigenpairs against its batch of one.

Every layer after reconstruction (classification, counts, star observables,
flux Hessians and Morse indices) runs over a whole batch; each row must come
out bit for bit as the one-eigenpair function gives it, and a failure in one
row must name that row's eigenpair or exclude it alone.
"""
import dataclasses
import re

import numpy as np
import pytest

import qgl.magnetic as magnetic
import qgl.spectrum as spectrum
import qgl.stats as stats
from qgl.cli import main
from qgl.counts import (
    counts,
    counts_batch,
    neumann_counts,
    nodal_counts,
    vertex_sign_sums,
)
from qgl.errors import DegenerateHessian, IdentityViolated
from qgl.graphs import load_graph
from qgl.neumann import star_observables, stars_batch
from qgl.stats import run_experiment

BUILTIN = ("chain2", "chain4", "chain8", "dumbbell", "flower3", "k4", "k6",
           "lasso", "mandarin3", "star3", "tree31_7")


def _batch(graph, want=200):
    """The first `want` generic eigenpairs, reconstructed and classified as
    one batch, with the verdict the batch gave every eigenpair."""
    rows = spectrum.eigenpairs(
        graph, spectrum.locate_spectrum(graph, count=3 * want, couplings=True))
    verdicts = [(ep, (generic, reason == "borderline"))
                for _, ep, generic, reason in rows if ep is not None]
    generic = spectrum.Eigenpairs.of([ep for _, ep, _, reason in rows if reason is None][:want])
    return generic, verdicts


@pytest.mark.parametrize("name", BUILTIN)
def test_batch_rows_equal_the_batch_of_one(name):
    g = load_graph(name)
    eps, verdicts = _batch(g)
    assert len(eps) >= 100
    for ep, verdict in verdicts:
        assert spectrum.classify(g, ep) == verdict, ep.n

    c = counts_batch(g, eps)
    for i, ep in enumerate(eps):
        assert counts(g, ep) == c.record(i), ep.n

    star = eps[eps.k > np.pi / g.min_length]
    N, rho = stars_batch(g, star)
    for i, ep in enumerate(star):
        for j, v in enumerate(g.topology.interior):
            assert star_observables(g, ep, v) == (N[i, j], rho[i, j]), (ep.n, v)

    if g.topology.betti == 0:
        return
    m = magnetic.indices_batch(g, eps)
    h = magnetic._hessians(g, magnetic._flux_layout(g, None), eps.kappa, eps.phases,
                           eps.couplings, spectrum.kernel_cutoff(g, eps.k), str)
    for i, ep in enumerate(eps):
        if m.degenerate[i]:
            with pytest.raises(DegenerateHessian):
                magnetic.local_indices(magnetic.hessian_alpha(g, ep))
            continue
        frame = magnetic.hessian_alpha(g, ep)
        assert np.array_equal(frame.hessian, h.hessian[i]) and frame.p == h.p[i], ep.n
        assert frame.sigma_magnetic == m.sigma[i], ep.n
        assert magnetic.local_indices(frame) == m.iota[i].tolist(), ep.n


def test_broken_identity_mid_batch_names_its_eigenpair(dumbbell):
    eps, _ = _batch(dumbbell, 40)
    counts_batch(dumbbell, eps)
    # an index past the count puts the nodal surplus out of its range; the
    # error names the eigenpair with k as a Python float prints
    n = eps.n.copy()
    n[20] += 7
    with pytest.raises(IdentityViolated,
                       match=re.escape(f"eigenpair n={n[20]}, k={float(eps.k[20])!r}:")):
        counts_batch(dumbbell, dataclasses.replace(eps, n=n))


def test_degenerate_hessian_mid_batch_excludes_only_it(dumbbell, monkeypatch):
    ref = run_experiment(dumbbell, 60, seed=7, magnetic=True, check_identities=True)
    target = ref.records[30].n
    flux = magnetic.flux_edges(dumbbell.with_lengths(ref.graph.lengths))[0]
    hessians = magnetic._hessians

    def doctored(graph, layout, kappa, theta, couplings, kernel_tol, name):
        couplings = couplings.copy()
        for i in range(len(kappa)):
            if name(i).startswith(f"eigenpair n={target},"):
                # no kernel amplitude on a flux edge, so no coupling through
                # it: that flux's Hessian row and column vanish, so it is singular
                couplings[i, flux] = 0.0
        return hessians(graph, layout, kappa, theta, couplings, kernel_tol, name)

    monkeypatch.setattr(magnetic, "_hessians", doctored)
    d = run_experiment(dumbbell, 60, seed=7, magnetic=True, check_identities=True)
    assert d.excluded == {"degenerate_hessian": 1}
    assert d.identity_failures == 0
    assert d.records[:59] == [r for r in ref.records if r.n != target]
    assert d.records[59].n > ref.records[-1].n


@pytest.mark.parametrize("name", ("dumbbell", "lasso", "tree31_7"))
def test_batch_functions_take_an_empty_block(name):
    # an empty block, sliced from a walk with couplings or of no blocks at
    # all (no couplings), gives every layer empty results, and the fold
    # adds nothing, not even a tally or histogram key
    g = load_graph(name)
    levels = spectrum.locate_spectrum(g, count=20, couplings=True)
    interior, E = len(g.topology.interior), g.E
    for empty in (levels[:0], spectrum.locate_spectrum(g, count=0)):
        batch = spectrum.eigenpairs(g, empty)
        eps = batch.eigenpairs
        assert len(batch.levels) == len(eps) == 0 and list(batch) == list(eps) == []
        assert batch.generic.shape == batch.reason.shape == (0,)
        assert all(x.shape == (0,) for x in spectrum.classify_batch(g, eps))
        assert all(x.shape == (0,) for x in counts_batch(g, eps))
        assert nodal_counts(g, eps).shape == neumann_counts(g, eps).shape == (0, E)
        assert vertex_sign_sums(g, eps).shape == (0,)
        N, rho = stars_batch(g, eps)
        assert N.shape == rho.shape == (0, interior)
        m = magnetic.indices_batch(g, eps)
        assert m.sigma.shape == m.degenerate.shape == (0,) and len(m.iota) == 0
        dist = stats.SurplusDistribution(graph=g)
        stats._fold_levels(dist, empty, spectrum.Thresholds(), True, True)
        assert dist == stats.SurplusDistribution(graph=g)


def test_fold_and_cli_build_no_eigenpair_row(dumbbell, tmp_path, monkeypatch):
    # reconstruction, every batch layer, the fold and the counts, magnetic
    # and spectrum subcommands read the columns of the block: no
    # `Eigenpair` row is built
    def refused(*args, **kwargs):
        raise AssertionError("an Eigenpair row was built")

    monkeypatch.setattr(spectrum, "Eigenpair", refused)
    d = run_experiment(dumbbell, 300, magnetic=True, check_identities=True)
    assert d.K == 300 and d.identity_failures == 0 and d.iota_hist
    for command in ("counts", "magnetic", "spectrum"):
        assert main([command, "--graph", "dumbbell", "--K", "300",
                     "--out", str(tmp_path)]) == 0
    with pytest.raises(AssertionError, match="row was built"):
        next(spectrum.stream_eigenpairs(dumbbell, count=1))
