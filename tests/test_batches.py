"""The stacked fold of a batch of eigenpairs against its batch of one.

Every layer after reconstruction (classification, counts, star observables,
flux Hessians and Morse indices) runs over a whole batch; each row must come
out bit for bit as the one-eigenpair function gives it, and a failure in one
row must name that row's eigenpair or exclude it alone.
"""
import numpy as np
import pytest

import qgl.magnetic as magnetic
import qgl.spectrum as spectrum
from qgl.counts import counts, counts_batch
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
        graph, spectrum.locate_spectrum(graph, count=3 * want, couplings=True),
        couplings=True)
    verdicts = [(ep, (generic, reason == "borderline"))
                for _, ep, generic, reason in rows if ep is not None]
    generic = [ep for _, ep, _, reason in rows if reason is None][:want]
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

    star = [ep for ep in eps if ep.k > np.pi / g.min_length]
    N, rho = stars_batch(g, star)
    for i, ep in enumerate(star):
        for j, v in enumerate(g.topology.interior):
            assert star_observables(g, ep, v) == (N[i, j], rho[i, j]), (ep.n, v)

    if g.topology.betti == 0:
        return
    m = magnetic.indices_batch(g, eps)
    h = magnetic._hessians(g, magnetic._flux_layout(g, None), spectrum.stacked(eps, "kappa"),
                           spectrum.stacked(eps, "phases"), spectrum.stacked(eps, "couplings"),
                           spectrum.kernel_cutoff(g, spectrum.stacked(eps, "k")), str)
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
    # an index past the count puts the nodal surplus out of its range
    bad = spectrum.Eigenpair(**{**vars(eps[20]), "n": eps[20].n + 7})
    with pytest.raises(IdentityViolated, match=f"n={bad.n},"):
        counts_batch(dumbbell, eps[:20] + [bad] + eps[21:])


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
