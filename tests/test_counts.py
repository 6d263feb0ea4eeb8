import numpy as np
import pytest

from qgl.counts import (
    counts,
    neumann_count_edge,
    nodal_count_edge,
    vertex_sign_sum,
)
from qgl.errors import NotGeneric
from qgl.graphs import load_graph
from qgl.spectrum import classify, eigenfunction_at, eigenpairs, locate_spectrum
from qgl.stats import draw_lengths
from conftest import count_extrema_sampled, count_zeros_sampled

GRAPHS = ("star3", "lasso", "dumbbell", "mandarin3", "k4", "tree31_7")


def _generic_eigenpairs(graph, want):
    rows = eigenpairs(graph, locate_spectrum(graph, count=3 * want))
    return [ep for _, ep, _, reason in rows if reason is None][:want]


# ---------------------------------------------------------------------------
# closed-form counts against the dense-sampling oracle


@pytest.mark.parametrize("name", GRAPHS)
def test_edge_counts_match_sampling(name):
    g = load_graph(name)
    for ep in _generic_eigenpairs(g, 12):
        for i in range(g.E):
            assert nodal_count_edge(g, ep, i) == count_zeros_sampled(g, ep, i), \
                (name, ep.n, i)
            assert neumann_count_edge(g, ep, i) == count_extrema_sampled(g, ep, i), \
                (name, ep.n, i)


@pytest.mark.parametrize("name", GRAPHS)
def test_interlacing_per_edge(name):
    g = load_graph(name)
    for ep in _generic_eigenpairs(g, 10):
        for i in range(g.E):
            diff = nodal_count_edge(g, ep, i) - neumann_count_edge(g, ep, i)
            assert abs(diff) <= 1


# ---------------------------------------------------------------------------
# totals, surpluses, identities


@pytest.mark.parametrize("name", GRAPHS)
def test_surplus_bounds_and_sign_identity(name):
    g = load_graph(name)
    beta = g.topology.betti
    nb = len(g.topology.boundary)
    for ep in _generic_eigenpairs(g, 15):
        rec = counts(g, ep)
        assert 0 <= rec.sigma <= beta
        assert 1 - beta - nb <= rec.omega <= 2 * beta - 1
        assert 2 * (rec.phi - rec.mu) == nb - vertex_sign_sum(g, ep)


def test_tree_has_zero_surplus(tree31):
    for ep in _generic_eigenpairs(tree31, 20):
        assert counts(tree31, ep).sigma == 0


def test_sturm_growth_on_interval_like_spectrum(star3):
    # the nodal count of the n-th eigenfunction of a tree is exactly n
    for ep in _generic_eigenpairs(star3, 20):
        assert counts(star3, ep).phi == ep.n


def test_counts_reject_nongeneric(lasso):
    # a simple loop state (seed-3 lengths) vanishes at the vertex
    g = lasso.with_lengths(draw_lengths(lasso.E, 3))
    loop_lv = next(lv for lv in locate_spectrum(g, count=16) if lv.loop_dims > 0)
    assert (loop_lv.multiplicity, loop_lv.loop_dims) == (1, 1)
    ep = eigenfunction_at(g, loop_lv.k, n=loop_lv.n)
    assert not classify(g, ep).generic
    with pytest.raises(NotGeneric):
        counts(g, ep)


def test_counts_total_equals_sum_of_sampled_edges(dumbbell):
    for ep in _generic_eigenpairs(dumbbell, 8):
        rec = counts(dumbbell, ep)
        phi_sampled = sum(count_zeros_sampled(dumbbell, ep, i)
                          for i in range(dumbbell.E))
        mu_sampled = sum(count_extrema_sampled(dumbbell, ep, i)
                         for i in range(dumbbell.E))
        assert rec.phi == phi_sampled and rec.mu == mu_sampled


def test_boundary_edge_neumann_count_uses_floor(star3):
    # tail edges carry exactly floor(k l / pi) interior critical points
    for ep in _generic_eigenpairs(star3, 10):
        for i in range(star3.E):
            expected = int(np.floor(ep.k * star3.lengths[i] / np.pi))
            assert neumann_count_edge(star3, ep, i) == expected


def test_counts_across_the_torus_origin():
    # with the built-in chain2 lengths, k l_2 lies within roundoff of a
    # multiple of 2pi at these levels (just above it, and at n = 2609 just
    # below); the parity rules are continuous there and must match sampling
    g = load_graph("chain2")
    levels = {lv.n: lv for lv in locate_spectrum(g, count=2609)}
    for n in (521, 1043, 1565, 2087, 2609):
        ep = eigenfunction_at(g, levels[n].k, n=n)
        assert classify(g, ep).generic
        r0 = ep.k * g.lengths[2] % (2 * np.pi)
        assert min(r0, 2 * np.pi - r0) < 1e-9, n
        for i in range(g.E):
            assert nodal_count_edge(g, ep, i) == count_zeros_sampled(g, ep, i), (n, i)
            assert neumann_count_edge(g, ep, i) == count_extrema_sampled(g, ep, i), (n, i)
        counts(g, ep)
