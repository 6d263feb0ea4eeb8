import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qgl
import qgl.magnetic as magnetic
import qgl.spectrum as spectrum

from qgl.counts import counts
from qgl.errors import CriticalPointViolated, DegenerateHessian
from qgl.graphs import load_graph
from qgl.magnetic import (
    flux_edges,
    hessian_alpha,
    local_indices,
    morse_index,
    spanning_tree,
)
from qgl.secular import (
    evaluate,
    evolution_matrix,
    inversion,
    reduce_torus,
    root_branch,
)
from qgl.spectrum import (
    counting,
    edge_couplings,
    eigenfunction_at,
    eigenpairs,
    kernel_cutoff,
    locate_spectrum,
    stacked,
)

GRAPHS = ("lasso", "dumbbell", "mandarin3", "k4", "flower3", "chain4", "tree31_7")
BUILTIN = ("chain2", "chain4", "chain8", "dumbbell", "flower3", "k4", "k6",
           "lasso", "mandarin3", "star3", "tree31_7")
FD_STEP = 1e-4
# a Hessian from the walk's frame, within a quarter of the tolerance of the
# root, against a fresh frame at the root, relative to max(1, max |H|): at
# most 4.1e-11 over the first 300 levels of the built-in graphs (k4)
FRAME_HESSIAN_TOL = 1e-9


def magnetic_secular(graph, kappa, alpha, fluxes=None):
    """Oracle: the secular function with flux phases e^{+-i alpha_j} on the
    non-tree directed edge pairs, as a determinant; equals the plain secular
    function at alpha = 0."""
    kappa = np.asarray(kappa, dtype=float)
    if fluxes is None:
        fluxes = flux_edges(graph)
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != len(fluxes):
        raise ValueError(f"expected {len(fluxes)} fluxes, got {len(alpha)}")
    U = evolution_matrix(graph, kappa)
    phase = np.ones(2 * graph.E, dtype=complex)
    for a, i in zip(alpha, fluxes):
        phase[2 * i] = np.exp(1j * a)
        phase[2 * i + 1] = np.exp(-1j * a)
    val = root_branch(graph, kappa) * np.linalg.det(
        np.eye(2 * graph.E) - phase[:, None] * U)
    return float(val.real)


def fd_hessian(graph, kappa, tree=None, step=FD_STEP):
    """Oracle: flux gradient and Hessian of the magnetic secular function at
    zero flux by central differences, the Hessian with one Richardson step
    (21 determinants for two fluxes, 43 for three)."""
    fluxes = flux_edges(graph, tree)
    nf = len(fluxes)

    def f(*shifts):
        alpha = np.zeros(nf)
        for j, h in shifts:
            alpha[j] += h
        return magnetic_secular(graph, kappa, alpha, fluxes)

    f0 = f()
    grad = np.array([(f((j, step)) - f((j, -step))) / (2 * step)
                     for j in range(nf)])

    def second(j, l, h):
        if j == l:
            return (f((j, h)) - 2 * f0 + f((j, -h))) / (h * h)
        return (f((j, h), (l, h)) + f((j, -h), (l, -h))
                - f((j, h), (l, -h)) - f((j, -h), (l, h))) / (4 * h * h)

    H = np.zeros((nf, nf))
    for j in range(nf):
        for l in range(j, nf):
            coarse = second(j, l, step)
            fine = second(j, l, step / 2)
            H[j, l] = H[l, j] = (4 * fine - coarse) / 3.0   # Richardson
    return grad, H


def _generic_levels(graph, want):
    rows = eigenpairs(graph, locate_spectrum(graph, count=4 * want, couplings=True))
    return [ep for _, ep, _, reason in rows if reason is None][:want]


# ---------------------------------------------------------------------------
# spanning trees and flux edges


def test_spanning_tree_canonical(k4):
    tree = spanning_tree(k4)
    assert len(tree) == k4.V - 1
    assert tree == (0, 1, 2)
    assert flux_edges(k4, tree) == (3, 4, 5)


def test_spanning_tree_skips_loops(dumbbell):
    tree = spanning_tree(dumbbell)
    assert tree == (2,)
    assert flux_edges(dumbbell) == (0, 1)


def test_flux_count_is_betti():
    for name in GRAPHS:
        g = load_graph(name)
        assert len(flux_edges(g)) == g.topology.betti


# ---------------------------------------------------------------------------
# magnetic secular function


def test_zero_flux_reduces_to_plain_secular(dumbbell):
    rng = np.random.default_rng(0)
    for _ in range(10):
        kappa = rng.uniform(0, 2 * np.pi, 3)
        plain = evaluate(dumbbell, kappa).F
        mag = magnetic_secular(dumbbell, kappa, np.zeros(2))
        assert mag == pytest.approx(plain, abs=1e-10 * max(1.0, abs(plain)))


def test_flux_is_two_pi_periodic(k4):
    kappa = np.array([0.3, 1.1, 2.0, 0.7, 1.9, 2.5])
    a = np.array([0.4, 1.2, 2.2])
    f1 = magnetic_secular(k4, kappa, a)
    f2 = magnetic_secular(k4, kappa, a + 2 * np.pi)
    assert f1 == pytest.approx(f2, abs=1e-9 * max(1.0, abs(f1)))


def test_wrong_flux_count_rejected(dumbbell):
    with pytest.raises(ValueError):
        magnetic_secular(dumbbell, np.zeros(3), np.zeros(1))


# ---------------------------------------------------------------------------
# Morse index helper


def test_morse_index_diagonal():
    assert morse_index(np.diag([-1.0, 2.0, -3.0])) == 2
    assert morse_index(np.diag([1.0, 2.0])) == 0
    assert morse_index(np.zeros((0, 0))) == 0


def test_morse_index_rejects_near_singular():
    with pytest.raises(DegenerateHessian):
        morse_index(np.diag([1.0, 1e-12]))


# ---------------------------------------------------------------------------
# the index theorem, numerically


@pytest.mark.parametrize("name", GRAPHS)
def test_magnetic_index_equals_nodal_surplus(name):
    g = load_graph(name)
    for ep in _generic_levels(g, 10):
        rec = counts(g, ep)
        frame = hessian_alpha(g, ep)
        assert frame.sigma_magnetic == rec.sigma, (name, ep.n)
        iota = local_indices(frame)
        assert sum(iota) == frame.sigma_magnetic
        assert all(0 <= i_j <= b for i_j, b in
                   zip(iota, [len(grp) for grp in frame.block_fluxes]))


@pytest.mark.parametrize("name", GRAPHS)
def test_closed_form_hessian_matches_finite_differences(name):
    g = load_graph(name)
    for ep in _generic_levels(g, 10):
        frame = hessian_alpha(g, ep)
        grad, H = fd_hessian(g, ep.kappa)
        p = evaluate(g, ep.kappa).p
        scale = max(1.0, float(np.max(np.abs(H), initial=0.0)))
        assert np.linalg.norm(grad) <= 1e-6 * scale, (name, ep.n)
        assert np.max(np.abs(frame.hessian - H), initial=0.0) <= 1e-5 * scale, (name, ep.n)
        assert frame.p == pytest.approx(p, rel=1e-10), (name, ep.n)
        assert frame.sigma_magnetic == morse_index(-H / p), (name, ep.n)


@pytest.mark.parametrize("name", GRAPHS)
def test_eigenpair_frame_gives_the_kappa_hessian(name):
    # an eigenpair read from the walk's frame, within a quarter of the
    # tolerance of the root, agrees with a frame at its kappa to
    # FRAME_HESSIAN_TOL; one reconstructed from a fresh frame at its k
    # gives the kappa Hessian bit for bit
    g = load_graph(name)
    for ep in _generic_levels(g, 10):
        a, b = hessian_alpha(g, ep), hessian_alpha(g, ep.kappa)
        scale = max(1.0, float(np.max(np.abs(b.hessian), initial=0.0)))
        assert np.max(np.abs(a.hessian - b.hessian), initial=0.0) \
            <= FRAME_HESSIAN_TOL * scale, (name, ep.n)
        assert a.p == pytest.approx(b.p, rel=FRAME_HESSIAN_TOL)
        fresh = hessian_alpha(g, eigenfunction_at(g, ep.k, ep.n))
        assert np.array_equal(fresh.hessian, b.hessian), (name, ep.n)
        assert fresh.p == b.p


def _fresh(g, lv):
    """eigenfunction_at's eigenpair at a level, with its kernel vector's
    couplings in the frame at the level's k, as the walk keeps them for a
    level it settles afresh."""
    frame = counting(g, np.array([lv.k]), vectors=True)
    return replace(eigenfunction_at(g, lv.k, lv.n), couplings=edge_couplings(
        frame.vectors[0], spectrum._kernel_vectors(frame)[0]))


@pytest.mark.parametrize("name", [name for name in BUILTIN if load_graph(name).topology.betti])
def test_walk_frame_hessians_agree_with_fresh_frames(name):
    # the first 300 levels: the Hessians from the couplings the walk kept
    # against those of a fresh frame at each located k, and the indices
    # they give, degenerate rows included
    g = load_graph(name)
    levels = locate_spectrum(g, count=300, couplings=True)
    rows = [row for row in eigenpairs(g, levels) if row[1] is not None]
    walked = [ep for _, ep, _, _ in rows]
    fresh = [_fresh(g, lv) for lv, _, _, _ in rows]
    assert any(lv.couplings is not None for lv in levels)
    assert [ep.n for ep in walked] == [ep.n for ep in fresh]
    layout = magnetic._flux_layout(g, None)
    a, b = (magnetic._hessians(g, layout, stacked(eps, "kappa"), stacked(eps, "phases"),
                               stacked(eps, "couplings"),
                               kernel_cutoff(g, stacked(eps, "k")), str)
            for eps in (walked, fresh))
    scale = np.maximum(1.0, np.max(np.abs(b.hessian), axis=(1, 2)))
    assert np.all(np.max(np.abs(a.hessian - b.hessian), axis=(1, 2))
                  <= FRAME_HESSIAN_TOL * scale), name
    assert np.allclose(a.p, b.p, rtol=FRAME_HESSIAN_TOL, atol=0.0), name
    m, m_fresh = magnetic.indices_batch(g, walked), magnetic.indices_batch(g, fresh)
    for got, want in zip(m, m_fresh):
        assert np.array_equal(got, want), name


def test_tree_batch_takes_no_frame(tree31, monkeypatch):
    # no flux acts on a tree: the walk keeps no couplings, and the batch's
    # indices are 0 and empty without a decomposition
    rows = eigenpairs(tree31, locate_spectrum(tree31, count=60, couplings=True))
    eps = [ep for _, ep, _, _ in rows if ep is not None]
    assert all(lv.couplings is None for lv, _, _, _ in rows)
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    m = magnetic.indices_batch(tree31, eps)
    assert m.sigma.tolist() == [0] * len(eps) and m.iota.shape == (len(eps), 0)
    assert not np.any(m.degenerate)


def test_couplings_only_when_asked(dumbbell):
    # a walk keeps no flux couplings unless asked, as a magnetic run asks:
    # eigenpairs without them are refused by indices_batch, and
    # hessian_alpha takes a frame at their kappa
    rows = eigenpairs(dumbbell, locate_spectrum(dumbbell, count=40))
    assert all(lv.couplings is None for lv, _, _, _ in rows)
    eps = [ep for _, ep, _, reason in rows if reason is None]
    assert eps and all(ep.couplings is None for ep in eps)
    with pytest.raises(ValueError, match="couplings"):
        magnetic.indices_batch(dumbbell, eps)
    a, b = hessian_alpha(dumbbell, eps[0]), hessian_alpha(dumbbell, eps[0].kappa)
    assert np.array_equal(a.hessian, b.hessian) and a.p == b.p


def test_point_off_the_zero_set_raises(dumbbell):
    ep = _generic_levels(dumbbell, 1)[0]
    hessian_alpha(dumbbell, ep.kappa)
    moved = ep.kappa + np.array([1e-5, 0.0, 0.0])
    with pytest.raises(CriticalPointViolated):
        hessian_alpha(dumbbell, moved)
    with pytest.raises(CriticalPointViolated):
        hessian_alpha(dumbbell, np.array([0.3, 1.1, 2.0]))


def test_local_indices_one_per_cycle_block(dumbbell):
    ep = _generic_levels(dumbbell, 3)[-1]
    frame = hessian_alpha(dumbbell, ep)
    assert len(frame.block_fluxes) == 2
    assert all(len(grp) == 1 for grp in frame.block_fluxes)
    assert all(i_j in (0, 1) for i_j in local_indices(frame))


def test_hessian_off_block_is_small(dumbbell):
    ep = _generic_levels(dumbbell, 1)[0]
    frame = hessian_alpha(dumbbell, ep)
    assert frame.off_block_residual < 1e-6


def test_tree_has_no_fluxes(tree31):
    ep = _generic_levels(tree31, 1)[0]
    frame = hessian_alpha(tree31, ep)
    assert frame.fluxes == ()
    assert frame.sigma_magnetic == 0
    assert local_indices(frame) == []


def test_index_invariant_under_tree_choice(k4):
    for ep in _generic_levels(k4, 4):
        a = hessian_alpha(k4, ep)
        b = hessian_alpha(k4, ep, tree=spanning_tree(k4, maximize=True))
        assert a.sigma_magnetic == b.sigma_magnetic


def test_stability_matrix_flips_under_inversion(dumbbell):
    # the inverted point lies on the zero set as well, with p of opposite
    # sign and the same Hessian, so the stability matrix changes sign
    for ep in _generic_levels(dumbbell, 3):
        frame = hessian_alpha(dumbbell, ep)
        kappa_inv = reduce_torus(inversion(ep.kappa))
        frame_inv = hessian_alpha(dumbbell, kappa_inv)
        assert np.allclose(frame.stability_matrix(),
                           -frame_inv.stability_matrix(),
                           atol=1e-4 * max(1.0, np.abs(frame.stability_matrix()).max()))
        assert frame.sigma_magnetic + frame_inv.sigma_magnetic == len(frame.fluxes)


def test_identity_check_survives_optimized_mode():
    # hard identities raise a typed error, so `python -O` cannot drop them
    code = """
import numpy as np
from qgl.errors import IdentityViolated
from qgl.magnetic import MagneticFrame, local_indices
if __debug__:
    raise SystemExit("not running under -O")
frame = MagneticFrame(kappa=np.zeros(2), tree=(), fluxes=(0, 1),
                      hessian=np.eye(2), p=1.0, block_fluxes=[[0], [1]],
                      sigma_magnetic=0, off_block_residual=0.0)
try:
    local_indices(frame)
except IdentityViolated:
    raise SystemExit(0)
raise SystemExit("local_indices accepted indices that do not sum up")
"""
    src = str(Path(qgl.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
