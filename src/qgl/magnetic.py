"""Flux Hessian of the secular function at zero flux.

Fluxes live on the non-tree edges of a spanning tree (canonical choice:
minimum edge index).  A flux alpha_j on edge i turns U(kappa) into
e^{i alpha_j A_j} U(kappa), with A_j = diag(+1 on 2i, -1 on 2i+1).  On the
zero set, U(kappa) has an eigenphase theta_0 = 0 with eigenvector a, and the
secular function equals p * theta_0(alpha) up to second order in the fluxes,
so its flux Hessian is p times the Hessian of that eigenphase.  Second-order
perturbation theory gives both exactly from one spectral frame (theta_m, z_m)
of U(kappa), the one an eigenpair keeps from its reconstruction (Berkolaiko,
Anal. PDE 6, 2013; Berkolaiko-Weyand, Phil. Trans. R. Soc. A 372, 2014):

    d_j theta_0       = a* A_j a      (zero by time-reversal symmetry)
    d_j d_l theta_0   = -sum_{m != 0} cot((theta_m - theta_0) / 2) Re(conj(b_jm) b_lm)
    p                 = Re(-i R(kappa) prod_{m != 0} (1 - e^{i theta_m}))

where b_jm = z_m* A_j a and R is the branch of det(U)^(-1/2).  The number of
negative eigenvalues of -H/p = -d^2 theta_0 is the magnetic stability index,
and the edge-separation blocks give local indices that sum to it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointViolated, DegenerateHessian, IdentityViolated
from .graphs import MetricGraph
from .secular import KERNEL_TOL, evolution_matrix, reduce_torus, root_branch
from .spectrum import Eigenpair, unitary_frame

GRADIENT_TOL = 1e-9      # max |d theta_0| per unit of max |cot|: roundoff only
# 50x the worst error of the smallest relative eigenvalue against 50-digit
# mpmath (2.2e-14); the root's location error moves it by < 1e-6 of itself
DEGENERACY_TOL = 50 * 2.2e-14
OFF_BLOCK_TOL = 1e-9     # off-block Hessian entries relative to max(1, max |H|)


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


@dataclass(frozen=True)
class _FluxLayout:
    """Flux edges of a spanning tree and their grouping by block."""
    tree: tuple[int, ...]
    fluxes: tuple[int, ...]
    block_fluxes: tuple[tuple[int, ...], ...]   # flux positions per block
    off_block: np.ndarray                       # pairs in different blocks


@functools.lru_cache(maxsize=32)
def _flux_layout(graph: MetricGraph, tree: tuple[int, ...] | None) -> _FluxLayout:
    """Built once per (graph, tree) rather than once per eigenpair; graphs
    are immutable and hash by identity."""
    if tree is None:
        tree = spanning_tree(graph)
    fluxes = flux_edges(graph, tree)
    nf = len(fluxes)
    block_fluxes = []
    for b in graph.topology.blocks:
        members = tuple(j for j, e in enumerate(fluxes) if e in set(b.edges))
        if members:
            block_fluxes.append(members)
    if {j for grp in block_fluxes for j in grp} != set(range(nf)):
        raise ValueError("some flux edge belongs to no block")
    off_block = np.ones((nf, nf), dtype=bool)
    for grp in block_fluxes:
        off_block[np.ix_(grp, grp)] = False
    off_block.flags.writeable = False
    return _FluxLayout(tree=tree, fluxes=fluxes, block_fluxes=tuple(block_fluxes),
                       off_block=off_block)


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


def hessian_alpha(graph: MetricGraph, point,
                  tree: tuple[int, ...] | None = None) -> MagneticFrame:
    """Flux Hessian of the secular function at zero flux over a located
    spectrum point, with the block structure checked, never assumed.

    `point` is an `Eigenpair`, whose spectral frame of U(kappa) is read as
    it stands (`eigenfunction_at` has checked its kernel against the cutoff
    that grows with k), or a bare kappa, for which one frame is built and
    must have an eigenphase theta_0 with |1 - e^{i theta_0}| at most
    KERNEL_TOL.
    """
    layout = _flux_layout(graph, tree)
    if isinstance(point, Eigenpair):
        kappa, frame, kernel_tol = point.kappa, point.frame, np.inf
    else:
        kappa = reduce_torus(point)
        frame = unitary_frame(evolution_matrix(graph, kappa), vectors=True)
        kernel_tol = KERNEL_TOL
    theta = frame.eigenphases
    distance = np.abs(1.0 - np.exp(1j * theta))
    j0 = int(np.argmin(distance))
    if distance[j0] > kernel_tol:
        raise CriticalPointViolated(
            f"no eigenphase within {kernel_tol:.1e} of 0 (nearest "
            f"|1 - e^(i theta)| = {distance[j0]:.2e}) at kappa={kappa}")

    # b[j, m] = z_m* A_j a for the eigenvector a of theta_0
    Z = frame.vectors
    a = Z[:, j0]
    plus = 2 * np.asarray(layout.fluxes, dtype=int)
    b = Z[plus].conj() * a[plus, None] - Z[plus + 1].conj() * a[plus + 1, None]
    rest = np.arange(len(theta)) != j0
    cot = 1.0 / np.tan(0.5 * (theta[rest] - theta[j0]))
    # d theta_0 vanishes exactly; the roundoff in a, and so in the computed
    # gradient, grows like 1 / (gap to the next eigenphase) ~ max |cot|
    grad = np.max(np.abs(b[:, j0].real), initial=0.0)
    if grad > GRADIENT_TOL * max(1.0, float(np.max(np.abs(cot)))):
        raise CriticalPointViolated(f"flux gradient {grad:.2e} at kappa={kappa}")
    b = b[:, rest]
    d2theta = -((b.conj() * cot) @ b.T).real
    p = float((-1j * root_branch(graph, kappa)
               * np.prod(1.0 - np.exp(1j * theta[rest]))).real)
    H = p * d2theta

    scale = max(1.0, float(np.max(np.abs(H), initial=0.0)))
    off = float(np.max(np.abs(H[layout.off_block]), initial=0.0))
    if off > OFF_BLOCK_TOL * scale:
        raise DegenerateHessian(
            f"off-block Hessian entry {off:.2e} exceeds tolerance")

    return MagneticFrame(kappa=kappa, tree=layout.tree, fluxes=layout.fluxes,
                         hessian=H, p=p,
                         block_fluxes=[list(grp) for grp in layout.block_fluxes],
                         sigma_magnetic=morse_index(-H / p),
                         off_block_residual=off / scale)


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
