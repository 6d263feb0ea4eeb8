import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qgl.secular as secular
from qgl.errors import NoLoops, UnsupportedDimension
from qgl.graphs import load_graph
from qgl.secular import (
    BATCH_ENTRIES,
    TWO_PI,
    adjugate_from_unitary_spectrum,
    bond_scattering,
    bridge_extension,
    bridge_factorization,
    cut_flip,
    embed_half_closed,
    evaluate,
    evolution_matrix,
    inversion,
    loop_reduced_determinant,
    reduce_torus,
    root_branch,
    sample_manifold,
    secular_value,
    secular_values,
    stack_size,
    unitary_schur,
)
from qgl.spectrum import locate_spectrum

GRAPHS = ("star3", "lasso", "dumbbell", "mandarin3", "k4")


def _rand_kappa(rng, E):
    return rng.uniform(0.0, TWO_PI, E)


# ---------------------------------------------------------------------------
# torus maps


@given(st.floats(-50.0, 50.0))
def test_torus_maps(x):
    r0 = float(reduce_torus(x))
    r2 = float(embed_half_closed(x))
    assert 0.0 <= r0 < TWO_PI
    assert 0.0 < r2 <= TWO_PI
    assert abs((r0 - x) % TWO_PI) < 1e-9 or abs((r0 - x) % TWO_PI - TWO_PI) < 1e-9


@given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=6))
def test_inversion_is_an_involution(kappa):
    k = np.array(kappa)
    assert np.allclose(reduce_torus(inversion(inversion(k))), reduce_torus(k),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# bond scattering matrix


def test_scattering_entries_star3(star3):
    S = bond_scattering(star3)
    # directed edge 0 leaves the center (degree 3): back-scatter -1/3,
    # transmission 2/3 from the other incoming directed edges
    assert S[0, 1] == pytest.approx(-1.0 / 3.0)
    assert S[0, 3] == pytest.approx(2.0 / 3.0)
    assert S[0, 5] == pytest.approx(2.0 / 3.0)
    # directed edge 1 leaves a leaf (degree 1): full reflection
    assert S[1, 0] == pytest.approx(1.0)
    assert S[1, 2] == 0.0


@pytest.mark.parametrize("name", GRAPHS)
def test_scattering_orthogonal_and_det(name):
    g = load_graph(name)
    S = bond_scattering(g)
    assert np.allclose(S.T @ S, np.eye(2 * g.E), atol=1e-13)
    beta = g.topology.betti
    assert np.linalg.det(S) == pytest.approx((-1.0) ** (beta - 1), abs=1e-10)


def test_evolution_unitary(dumbbell):
    rng = np.random.default_rng(0)
    U = evolution_matrix(dumbbell, _rand_kappa(rng, dumbbell.E))
    assert np.allclose(U.conj().T @ U, np.eye(2 * dumbbell.E), atol=1e-13)


# ---------------------------------------------------------------------------
# adjugate


def adjugate(M: np.ndarray) -> np.ndarray:
    """Oracle: adj(M) with adj(M) M = det(M) I, for a general square matrix.

    Uses det * inv when M is comfortably invertible and falls back to minors
    otherwise.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=M.dtype)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] > 1e-8 * max(1.0, sv[0]):
        return np.linalg.det(M) * np.linalg.inv(M)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            minor = M[np.ix_(rows, cols)]
            out[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def test_adjugate_two_by_two():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(adjugate(M), [[4.0, -2.0], [-3.0, 1.0]])


def test_adjugate_singular_matrix():
    # rank 1, so the minors fallback is exercised; adj(M) M = 0 here
    M = np.array([[1.0, 2.0, 3.0]] * 3)
    A = adjugate(M)
    assert np.allclose(A @ M, np.zeros((3, 3)), atol=1e-12)


def test_adjugate_defining_identity():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    A = adjugate(M)
    assert np.allclose(A @ M, np.linalg.det(M) * np.eye(5), atol=1e-9)


def test_adjugate_from_spectrum_matches_general(k4):
    rng = np.random.default_rng(2)
    U = evolution_matrix(k4, _rand_kappa(rng, k4.E))
    lam, Z = unitary_schur(U)
    A1 = adjugate_from_unitary_spectrum(lam, Z)
    A2 = adjugate(np.eye(2 * k4.E) - U)
    assert np.allclose(A1, A2, atol=1e-8)


# ---------------------------------------------------------------------------
# the secular function


@pytest.mark.parametrize("name", GRAPHS)
def test_secular_real_and_matches_direct_determinant(name):
    g = load_graph(name)
    rng = np.random.default_rng(3)
    for _ in range(50):
        kappa = _rand_kappa(rng, g.E)
        ev = evaluate(g, kappa)
        scale = max(1.0, abs(ev.F))
        assert ev.imag_residual < 1e-9 * scale
        direct = root_branch(g, kappa) * np.linalg.det(
            np.eye(2 * g.E) - evolution_matrix(g, kappa))
        assert ev.F == pytest.approx(direct.real, abs=1e-9 * scale)


@pytest.mark.parametrize("name", GRAPHS + ("flower3",))
def test_secular_value_is_bit_identical_to_evaluate(name):
    # exact equality: on flower3 F vanishes identically on the loop planes
    # kappa_e = 0, so the manifold scan depends on the roundoff sign of F
    g = load_graph(name)
    plane_edges = g.topology.loops or range(g.E)
    rng = np.random.default_rng(11)
    points = [np.zeros(g.E)]
    for j in range(199):
        kappa = _rand_kappa(rng, g.E)
        if j % 4 == 0:
            kappa[rng.choice(plane_edges)] = 0.0
        points.append(kappa)
    stacked = secular_values(g, np.array(points))
    assert stacked.shape == (len(points),)
    for kappa, F in zip(points, stacked):
        assert F == secular_value(g, kappa) == evaluate(g, kappa).F


@pytest.mark.parametrize("row", [0, 17, 49])
def test_secular_values_rejects_non_finite_stack(star3, row):
    kappas = np.random.default_rng(13).uniform(0.0, TWO_PI, (50, star3.E))
    kappas[row, 1] = np.nan
    with pytest.raises(ValueError):
        secular_values(star3, kappas)


def test_manifold_stacks_stay_within_the_budget(monkeypatch):
    g = load_graph("flower3")
    sizes = []

    def recorded(graph, kappa):
        sizes.append(len(kappa))
        return evolution_matrix(graph, kappa)

    monkeypatch.setattr(secular, "evolution_matrix", recorded)
    sample_manifold(g, resolution=40)
    assert max(sizes) * (2 * g.E) ** 2 <= BATCH_ENTRIES
    # the 40^3 grid points alone fill at least this many stacks
    assert sizes.count(stack_size(g)) >= 40 ** 3 // stack_size(g)


def test_unitary_schur_matches_scipy_schur(k4):
    U = evolution_matrix(k4, _rand_kappa(np.random.default_rng(12), k4.E))
    T, Z = scipy.linalg.schur(U, output="complex")
    lam, Z2 = unitary_schur(U)
    assert np.array_equal(lam, np.diag(T)) and np.array_equal(Z2, Z)


def test_unitary_schur_rejects_non_finite_matrix(star3):
    U = evolution_matrix(star3, np.zeros(3))
    U[0, 0] = np.nan
    with pytest.raises(ValueError):
        unitary_schur(U)


def test_star_relation_zero_is_secular_zero(star3):
    # tan sum 1 + 1 - 2 = 0 at this point, so it lies on the zero set
    kappa = np.array([np.pi / 4, np.pi / 4, np.pi - np.arctan(2.0)])
    assert abs(evaluate(star3, kappa).F) < 1e-12
    off = kappa + np.array([0.3, 0.0, 0.0])
    assert abs(evaluate(star3, off).F) > 1e-3


def test_lasso_relation_zero_is_secular_zero(lasso):
    # loop edge 0, tail edge 1: tan(k1) + 2 tan(k0 / 2) = 0
    k0 = 1.3
    k1 = np.arctan(-2.0 * np.tan(k0 / 2.0)) % np.pi
    ev = evaluate(lasso, np.array([k0, k1]))
    assert abs(ev.F) < 1e-12


@pytest.mark.parametrize("name", GRAPHS)
def test_gradient_matches_finite_differences(name):
    g = load_graph(name)
    rng = np.random.default_rng(4)
    kappa = _rand_kappa(rng, g.E)
    ev = evaluate(g, kappa)
    h = 1e-6
    for e in range(g.E):
        dk = np.zeros(g.E)
        dk[e] = h
        fd = (evaluate(g, kappa + dk).F - evaluate(g, kappa - dk).F) / (2 * h)
        assert ev.gradF[e] == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))


@pytest.mark.parametrize("name", ("star3", "dumbbell", "k4"))
def test_gradient_is_p_times_weights_on_zero_set(name):
    g = load_graph(name)
    for lv in locate_spectrum(g, count=8):
        if lv.multiplicity != 1:
            continue
        kappa = reduce_torus(np.asarray(g.lengths) * lv.k)
        ev = evaluate(g, kappa)
        assert ev.kernel_dim == 1
        assert np.allclose(ev.gradF, ev.p * ev.m, atol=1e-8 * max(1.0, abs(ev.p)))


@pytest.mark.parametrize("name", GRAPHS)
def test_inversion_symmetry(name):
    g = load_graph(name)
    rng = np.random.default_rng(5)
    sign = (-1.0) ** (g.topology.betti - 1)
    for _ in range(20):
        kappa = _rand_kappa(rng, g.E)
        f1 = evaluate(g, kappa).F
        f2 = evaluate(g, inversion(kappa)).F
        assert f2 == pytest.approx(sign * f1, abs=1e-9 * max(1.0, abs(f1)))


@pytest.mark.parametrize("name,bridge", (("star3", 1), ("dumbbell", 2), ("lasso", 1)))
def test_bridge_half_turn_flips_sign(name, bridge):
    g = load_graph(name)
    rng = np.random.default_rng(6)
    for _ in range(20):
        kappa = _rand_kappa(rng, g.E)
        f1 = evaluate(g, kappa).F
        f2 = evaluate(g, bridge_extension(g, kappa, bridge)).F
        assert f2 == pytest.approx(-f1, abs=1e-9 * max(1.0, abs(f1)))


def test_bridge_extension_requires_bridge(k4):
    with pytest.raises(ValueError):
        bridge_extension(k4, np.zeros(6), 0)


# ---------------------------------------------------------------------------
# bridge factorization


@pytest.mark.parametrize("name,bridge", (("dumbbell", 2), ("lasso", 1), ("star3", 0)))
def test_bridge_factorization_reconstructs(name, bridge):
    g = load_graph(name)
    rng = np.random.default_rng(7)
    for _ in range(30):
        kappa = _rand_kappa(rng, g.E)
        fac = bridge_factorization(g, bridge, kappa)
        full = root_branch(g, kappa) * np.linalg.det(
            np.eye(2 * g.E) - evolution_matrix(g, kappa))
        rec = fac.secular_value(kappa[bridge])
        assert abs(rec - full) < 1e-8 * max(1.0, abs(full))
        assert abs(abs(fac.phase1) - 1.0) < 1e-12
        assert abs(abs(fac.phase2) - 1.0) < 1e-12


def test_bridge_factorization_side_selection(dumbbell):
    kappa = np.array([0.7, 1.9, 2.3])
    a = bridge_factorization(dumbbell, 2, kappa, far_vertex=0)
    b = bridge_factorization(dumbbell, 2, kappa, far_vertex=1)
    assert 0 in a.edges2 and 0 in b.edges1
    assert a.secular_value(kappa[2]) == pytest.approx(b.secular_value(kappa[2]))


def test_cut_flip_preserves_zero_set(dumbbell):
    for lv in locate_spectrum(dumbbell, count=10):
        if lv.multiplicity != 1 or lv.loop_dims:
            continue
        kappa = reduce_torus(np.asarray(dumbbell.lengths) * lv.k)
        if abs(evaluate(dumbbell, kappa).F) > 1e-9:
            continue
        flipped = cut_flip(dumbbell, kappa, vertex=1, bridge=2)
        assert abs(evaluate(dumbbell, flipped).F) < 1e-7


# ---------------------------------------------------------------------------
# loop factors


@pytest.mark.parametrize("name", ("flower3", "lasso", "dumbbell"))
def test_loop_factorization(name):
    g = load_graph(name)
    rng = np.random.default_rng(8)
    for _ in range(20):
        kappa = _rand_kappa(rng, g.E)
        det_full = np.linalg.det(np.eye(2 * g.E) - evolution_matrix(g, kappa))
        factor = np.prod([1.0 - np.exp(1j * kappa[i]) for i in g.topology.loops])
        red = loop_reduced_determinant(g, kappa)
        assert abs(det_full - factor * red) < 1e-9 * max(1.0, abs(det_full))


def test_loop_reduced_determinant_requires_loops(star3):
    with pytest.raises(NoLoops):
        loop_reduced_determinant(star3, np.zeros(3))


# ---------------------------------------------------------------------------
# manifold sampling


def test_sample_manifold_points_lie_on_zero_set():
    g = load_graph("lasso")
    # lasso has 2 edges; use the 3-edge star instead for the regular sheet
    g = load_graph("star3")
    rows = sample_manifold(g, resolution=10)
    assert rows
    for k1, k2, k3, comp in rows[:200]:
        assert comp == "regular"
        assert abs(evaluate(g, np.array([k1, k2, k3])).F) < 1e-6


def test_sample_manifold_tags_loop_sheets():
    g = load_graph("flower3")
    rows = sample_manifold(g, resolution=8)
    comps = {c for *_, c in rows}
    assert {"loop:0", "loop:1", "loop:2"} <= comps
    for k1, k2, k3, comp in rows:
        if comp.startswith("loop:"):
            assert (k1, k2, k3)[int(comp.split(":")[1])] == 0.0


def _oracle_manifold_scan(graph, resolution, tol=1e-10):
    """The manifold scan written against `evaluate(...).F`."""
    grid = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    rows = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for u in grid:
            for v in grid:
                base = np.zeros(3)
                base[others] = u, v
                prev_t, prev_f = None, None
                for t in np.append(grid, TWO_PI):
                    pt = base.copy()
                    pt[axis] = t
                    ft = evaluate(graph, pt).F
                    if prev_f is not None and np.sign(prev_f) * np.sign(ft) < 0:
                        lo, hi, flo = prev_t, t, prev_f
                        while hi - lo > tol:
                            mid = 0.5 * (lo + hi)
                            pm = base.copy()
                            pm[axis] = mid
                            fm = evaluate(graph, pm).F
                            if np.sign(flo) * np.sign(fm) <= 0:
                                hi = mid
                            else:
                                lo, flo = mid, fm
                        pt[axis] = 0.5 * (lo + hi)
                        rows.append((*(pt % TWO_PI), "regular"))
                    prev_t, prev_f = t, ft
    for i in graph.topology.loops:
        others = [a for a in range(3) if a != i]
        for u in grid:
            for v in grid:
                pt = np.zeros(3)
                pt[others] = u, v
                if abs(loop_reduced_determinant(graph, pt)) > 1e-10:
                    rows.append((*pt, f"loop:{i}"))
    return rows


@pytest.mark.parametrize("name, res", [("flower3", 3), ("star3", 4),
                                       ("mandarin3", 4), ("flower3", 5)])
def test_sample_manifold_matches_evaluate_scan(name, res):
    g = load_graph(name)
    assert sample_manifold(g, resolution=res) == _oracle_manifold_scan(g, res)


def test_sample_manifold_rejects_wrong_dimension(k4):
    with pytest.raises(UnsupportedDimension):
        sample_manifold(k4)
