"""Magnetic secular function and flux Hessian at zero flux.

Fluxes live on the non-tree edges of a spanning tree (canonical choice:
minimum edge index).  The Hessian at a spectrum point is computed by central
finite differences with one Richardson extrapolation step; the number of
negative eigenvalues of -H/p is the magnetic stability index, and the
edge-separation blocks give local indices that sum to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointViolated, DegenerateHessian, IdentityViolated
from .graphs import MetricGraph
from .secular import evaluate, evolution_matrix, root_branch

FD_STEP = 1e-4
GRADIENT_TOL = 1e-6
DEGENERACY_TOL = 1e-8
OFF_BLOCK_TOL = 1e-6


def spanning_tree(graph: MetricGraph, maximize: bool = False) -> tuple[int, ...]:
    """Edge ids of a spanning tree; minimum edge index by default."""
    parent = list(range(graph.V))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = range(graph.E - 1, -1, -1) if maximize else range(graph.E)
    tree = []
    for i in order:
        e = graph.edges[i]
        if e.tail == e.head:
            continue
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            tree.append(i)
    return tuple(sorted(tree))


def flux_edges(graph: MetricGraph, tree: tuple[int, ...] | None = None) -> tuple[int, ...]:
    if tree is None:
        tree = spanning_tree(graph)
    return tuple(i for i in range(graph.E) if i not in set(tree))


def magnetic_secular(graph: MetricGraph, kappa, alpha,
                     fluxes: tuple[int, ...] | None = None,
                     S: np.ndarray | None = None) -> float:
    """Secular function with flux phases e^{+-i alpha_j} on the non-tree
    directed edge pairs; equals the plain secular function at alpha = 0."""
    kappa = np.asarray(kappa, dtype=float)
    if fluxes is None:
        fluxes = flux_edges(graph)
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != len(fluxes):
        raise ValueError(f"expected {len(fluxes)} fluxes, got {len(alpha)}")
    U = evolution_matrix(graph, kappa, S)
    phase = np.ones(2 * graph.E, dtype=complex)
    for a, i in zip(alpha, fluxes):
        phase[2 * i] = np.exp(1j * a)
        phase[2 * i + 1] = np.exp(-1j * a)
    val = root_branch(graph, kappa) * np.linalg.det(
        np.eye(2 * graph.E) - phase[:, None] * U)
    return float(val.real)


@dataclass
class MagneticFrame:
    kappa: np.ndarray
    tree: tuple[int, ...]
    fluxes: tuple[int, ...]          # non-tree edge ids carrying a flux
    hessian: np.ndarray              # of the secular function in the fluxes
    p: float
    block_fluxes: list[list[int]]    # flux positions grouped by block
    sigma_magnetic: int
    off_block_residual: float

    def stability_matrix(self) -> np.ndarray:
        return -self.hessian / self.p


def morse_index(sym: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL) -> int:
    """Number of negative eigenvalues of a symmetric matrix."""
    if sym.size == 0:
        return 0
    w = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.any(np.abs(w) < degeneracy_tol * scale):
        raise DegenerateHessian(f"eigenvalues {w}")
    return int(np.sum(w < 0))


def hessian_alpha(graph: MetricGraph, kappa, p: float | None = None,
                  tree: tuple[int, ...] | None = None,
                  step: float = FD_STEP) -> MagneticFrame:
    """Flux Hessian of the secular function at zero flux over a located
    spectrum point, with the block structure checked, never assumed."""
    kappa = np.asarray(kappa, dtype=float)
    if tree is None:
        tree = spanning_tree(graph)
    fluxes = flux_edges(graph, tree)
    nf = len(fluxes)
    if p is None:
        p = evaluate(graph, kappa).p

    def f(alpha):
        return magnetic_secular(graph, kappa, alpha, fluxes)

    f0 = f(np.zeros(nf))

    # the point must be a critical point of the flux map
    grad = np.zeros(nf)
    for j in range(nf):
        a = np.zeros(nf)
        a[j] = step
        grad[j] = (f(a) - f(-a)) / (2 * step)

    def second(j, l, h):
        if j == l:
            a = np.zeros(nf)
            a[j] = h
            return (f(a) - 2 * f0 + f(-a)) / (h * h)
        a = np.zeros(nf)
        a[j], a[l] = h, h
        fpp = f(a)
        a[l] = -h
        fpm = f(a)
        a[j], a[l] = -h, h
        fmp = f(a)
        a[l] = -h
        fmm = f(a)
        return (fpp + fmm - fpm - fmp) / (4 * h * h)

    H = np.zeros((nf, nf))
    for j in range(nf):
        for l in range(j, nf):
            coarse = second(j, l, step)
            fine = second(j, l, step / 2)
            H[j, l] = H[l, j] = (4 * fine - coarse) / 3.0   # Richardson

    scale = max(1.0, float(np.max(np.abs(H)))) if nf else 1.0
    if np.linalg.norm(grad) > GRADIENT_TOL * scale:
        raise CriticalPointViolated(
            f"flux gradient norm {np.linalg.norm(grad):.2e} at kappa={kappa}")

    # group fluxes by edge-separation block and verify off-block decay
    blocks = graph.topology.blocks
    block_fluxes: list[list[int]] = []
    for b in blocks:
        members = [j for j, e in enumerate(fluxes) if e in set(b.edges)]
        if members:
            block_fluxes.append(members)
    assigned = {j for grp in block_fluxes for j in grp}
    if assigned != set(range(nf)):
        raise ValueError("some flux edge belongs to no block")
    off = 0.0
    for j in range(nf):
        for l in range(nf):
            same = any(j in grp and l in grp for grp in block_fluxes)
            if not same:
                off = max(off, abs(H[j, l]))
    off_rel = off / scale
    if nf and off_rel > OFF_BLOCK_TOL:
        raise DegenerateHessian(
            f"off-block Hessian entry {off:.2e} exceeds tolerance")

    sigma = morse_index(-H / p) if nf else 0
    return MagneticFrame(kappa=kappa, tree=tree, fluxes=fluxes, hessian=H,
                         p=float(p), block_fluxes=block_fluxes,
                         sigma_magnetic=sigma, off_block_residual=off_rel)


def local_indices(frame: MagneticFrame) -> list[int]:
    """Morse index of each block of the stability matrix; sums to the total."""
    A = frame.stability_matrix()
    out = []
    for grp in frame.block_fluxes:
        sub = A[np.ix_(grp, grp)]
        out.append(morse_index(sub))
    if sum(out) != frame.sigma_magnetic:
        raise IdentityViolated(
            f"local indices {out} do not sum to sigma_magnetic "
            f"{frame.sigma_magnetic}")
    return out
