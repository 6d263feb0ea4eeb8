import numpy as np
import pytest

from qgl.counts import counts
from qgl.errors import NotGeneric, NotStarRegime
from qgl.graphs import load_graph
from qgl.neumann import (
    local_global_check,
    neumann_points_on_edge,
    offset_atan,
    partition,
    star_observables,
)
from qgl.spectrum import eigenpairs, locate_spectrum


def _generic_eigenpairs(graph, want, k_min=0.0):
    rows = eigenpairs(graph, locate_spectrum(graph, count=6 * want))
    return [ep for lv, ep, _, reason in rows if reason is None and lv.k > k_min][:want]


# ---------------------------------------------------------------------------
# offset arctangent


def test_offset_atan_branches():
    assert offset_atan(1.0) == pytest.approx(np.pi / 4)
    assert offset_atan(-1.0) == pytest.approx(3 * np.pi / 4)
    assert offset_atan(1e9) == pytest.approx(np.pi / 2, abs=1e-8)
    assert offset_atan(-1e9) == pytest.approx(np.pi / 2, abs=1e-8)
    with pytest.raises(NotGeneric):
        offset_atan(0.0)


def test_capacity_closed_form_example():
    # degree-3 star with trace ratios (1, 1, -2): the capacity is
    # (atan 1 + atan 1 + pi + atan(-2)) / pi
    expected = (np.pi / 4 + np.pi / 4 + np.pi - np.arctan(2.0)) / np.pi
    got = sum(offset_atan(x) for x in (1.0, 1.0, -2.0)) / np.pi
    assert got == pytest.approx(expected)
    assert got == pytest.approx(1.14758, abs=1e-5)


# ---------------------------------------------------------------------------
# Neumann points against the sampled profile


@pytest.mark.parametrize("name", ("star3", "dumbbell", "k4", "tree31_7"))
def test_points_match_profile_extrema(name):
    g = load_graph(name)
    for ep in _generic_eigenpairs(g, 8):
        for i in range(g.E):
            xs = neumann_points_on_edge(g, ep, i)
            l = g.lengths[i]
            n = max(4000, 200 * (int(ep.k * l / np.pi) + 2))
            # sample the same closed window the point finder reports on
            eps = 1e-7 / ep.k
            value, derivative = ep.values[2 * i], ep.derivatives[2 * i]
            x = np.linspace(eps, l - eps, n)
            df = -value * np.sin(ep.k * x) + derivative * np.cos(ep.k * x)
            s = np.sign(df)
            s = s[s != 0]
            sampled = int(np.sum(s[:-1] * s[1:] < 0))
            assert len(xs) == sampled, (name, ep.n, i)
            # every reported point is a zero of the derivative profile
            for x in xs:
                val = -value * np.sin(ep.k * x) + derivative * np.cos(ep.k * x)
                assert abs(val) < 1e-8
                assert 0.0 < x < l


# ---------------------------------------------------------------------------
# star observables


def test_star_observable_bounds(k4):
    k_min = np.pi / k4.min_length
    for ep in _generic_eigenpairs(k4, 10, k_min=k_min):
        for v in k4.topology.interior:
            N, rho = star_observables(k4, ep, v)
            deg = k4.degrees[v]
            assert 1 <= N <= deg - 1
            assert (N + 1) / 2 <= rho + 1e-9
            assert rho <= (N + deg - 1) / 2 + 1e-9


def test_star_observables_require_star_regime(star3):
    ep = _generic_eigenpairs(star3, 1)[0]
    if ep.k <= np.pi / star3.min_length:
        with pytest.raises(NotStarRegime):
            star_observables(star3, ep, 0)


def test_star_observables_reject_boundary_vertex(star3):
    k_min = np.pi / star3.min_length
    ep = _generic_eigenpairs(star3, 1, k_min=k_min)[0]
    with pytest.raises(ValueError):
        star_observables(star3, ep, 1)


def test_star_position_from_stub_star_spectrum(tree31):
    # N_v must be the position of k^2 in the Neumann spectrum of the star
    # domain itself: count star eigenvalues below k using the stub lengths
    from conftest import star_relation_roots
    k_min = np.pi / tree31.min_length
    for ep in _generic_eigenpairs(tree31, 6, k_min=k_min):
        part = partition(tree31, ep)
        for v, star in part.stars.items():
            stubs = sorted(star.stub_lengths.values())
            roots = star_relation_roots(stubs, [], ep.k + 1.0)
            below = sum(1 for r in roots if r < ep.k - 1e-9)
            assert star.N == below + 1, (ep.n, v)


# ---------------------------------------------------------------------------
# partition structure and local-global identities


@pytest.mark.parametrize("name", ("star3", "dumbbell", "k4", "tree31_7"))
def test_partition_counts_and_identities(name):
    g = load_graph(name)
    k_min = np.pi / g.min_length
    nb = len(g.topology.boundary)
    for ep in _generic_eigenpairs(g, 8, k_min=k_min):
        rec = counts(g, ep)
        part = partition(g, ep)
        assert part.star_regime
        assert len(part.stars) == len(g.topology.interior)
        # cutting a connected graph at p points gives p + 1 - beta pieces
        assert part.domain_count == len(part.points) + 1 - g.topology.betti
        rep = local_global_check(g, ep, rec, part)
        assert rep.ok
        assert rep.sum_positions == rec.phi - rec.mu + g.E - nb
        expect_rho = g.total_length * ep.k / np.pi - rec.mu + g.E - nb
        assert rep.sum_capacities == pytest.approx(expect_rho, rel=1e-8)


def test_partition_below_star_regime_has_no_stars(dumbbell):
    ep = _generic_eigenpairs(dumbbell, 1)[0]
    if ep.k <= np.pi / dumbbell.min_length:
        part = partition(dumbbell, ep)
        assert not part.star_regime and not part.stars


def test_local_global_requires_star_regime(dumbbell):
    ep = _generic_eigenpairs(dumbbell, 1)[0]
    if ep.k <= np.pi / dumbbell.min_length:
        with pytest.raises(NotStarRegime):
            local_global_check(dumbbell, ep, counts(dumbbell, ep))


def test_segment_lengths_are_half_wavelength(k4):
    # interior gaps between consecutive Neumann points on one edge
    k_min = np.pi / k4.min_length
    ep = _generic_eigenpairs(k4, 1, k_min=k_min)[0]
    for i in range(k4.E):
        xs = neumann_points_on_edge(k4, ep, i)
        for a, b in zip(xs, xs[1:]):
            assert b - a == pytest.approx(np.pi / ep.k, abs=1e-9)
