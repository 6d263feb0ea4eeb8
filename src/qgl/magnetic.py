"""Flux Hessian of the secular function at zero flux.

Fluxes live on the non-tree edges of a spanning tree (canonical choice:
minimum edge index).  A flux alpha_j on edge i turns U(kappa) into
e^{i alpha_j A_j} U(kappa), with A_j = diag(+1 on 2i, -1 on 2i+1).  On the
zero set, U(kappa) has an eigenphase theta_0 = 0 with eigenvector a, and the
secular function equals p * theta_0(alpha) up to second order in the fluxes,
so its flux Hessian is p times the Hessian of that eigenphase.  Second-order
perturbation theory gives both exactly from one spectral frame (theta_m, z_m)
of U(kappa), taken at the eigenpair's kappa (Berkolaiko, Anal. PDE 6, 2013;
Berkolaiko-Weyand, Phil. Trans. R. Soc. A 372, 2014):

    d_j theta_0       = a* A_j a      (zero by time-reversal symmetry)
    d_j d_l theta_0   = -sum_{m != 0} cot((theta_m - theta_0) / 2) Re(conj(b_jm) b_lm)
    p                 = Re(-i R(kappa) prod_{m != 0} (1 - e^{i theta_m}))

where b_jm = z_m* A_j a and R is the branch of det(U)^(-1/2).  The number of
negative eigenvalues of -H/p = -d^2 theta_0 is the magnetic stability index,
and the edge-separation blocks give local indices that sum to it.

An eigenpair streamed with `couplings=True` brings these inputs with it:
the eigenphases of the frame its kernel was read from and the couplings b
of its kernel vector through every edge (`spectrum.edge_couplings`), of
which the flux edges' rows are taken.  That frame is the walk's final
Newton frame, within a quarter of the tolerance of the root, or for a level
settled afresh the frame the walk took at the located k, so no
decomposition of U is taken here for such an eigenpair.  A bare kappa, or
an eigenpair without couplings passed to `hessian_alpha`, takes one frame.
A batch is a `spectrum.Eigenpairs` block, read by columns: the cot factors,
the perturbation sums and p are array operations over it, and the Morse
indices come from one stacked `eigvalsh` of the stability matrices and one
per block order.  Each row comes out as it would alone, and the one-point
functions (`hessian_alpha`, `local_indices`, `morse_index`) are the batch
of one; `hessian_alpha` reads an `Eigenpair` row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CriticalPointViolated, DegenerateHessian, IdentityViolated
from .graphs import MetricGraph
from .secular import KERNEL_TOL, evolution_matrix, reduce_torus, root_branch
from .spectrum import Eigenpair, Eigenpairs, edge_couplings, kernel_cutoff, unitary_frame

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


class _Hessians(NamedTuple):
    """Flux Hessians of a stack of spectrum points, one row per point."""
    hessian: np.ndarray              # (points, fluxes, fluxes)
    p: np.ndarray
    off_block_residual: np.ndarray   # largest off-block entry relative to max(1, max |H|)
    off_block: np.ndarray            # where that entry exceeds OFF_BLOCK_TOL


def _hessians(graph: MetricGraph, layout: _FluxLayout, kappa: np.ndarray,
              theta: np.ndarray, couplings: np.ndarray, kernel_tol: np.ndarray,
              name: Callable[[int], str]) -> _Hessians:
    """The flux Hessians at points kappa (rows) from the eigenphases theta
    of a spectral frame near each, one of them within its `kernel_tol` of 0
    (as |1 - e^{i theta}|), and the `edge_couplings` of that eigenphase's
    eigenvector in the frame; every product is stacked over the rows or
    elementwise, so each row comes out as it would alone.
    CriticalPointViolated names the first row `name`-d that fails."""
    rows = np.arange(len(kappa))
    n = theta.shape[1]
    distance = np.abs(1.0 - np.exp(1j * theta))
    j0 = np.argmin(distance, axis=1)
    far = distance[rows, j0] > kernel_tol
    if np.any(far):
        i = int(np.argmax(far))
        raise CriticalPointViolated(
            f"{name(i)}: no eigenphase within {kernel_tol[i]:.1e} of 0 (nearest "
            f"|1 - e^(i theta)| = {distance[i, j0[i]]:.2e})")

    # b[:, j, m] = z_m* A_j a for the flux edges j and the eigenvector a of theta_0
    b = couplings[:, list(layout.fluxes), :]
    # the eigenphase indices other than j0, in order
    rest = np.arange(n - 1) + (np.arange(n - 1) >= j0[:, None])
    theta_rest = np.take_along_axis(theta, rest, axis=1)
    cot = 1.0 / np.tan(0.5 * (theta_rest - theta[rows, j0][:, None]))
    # d theta_0 vanishes exactly; the roundoff in a, and so in the computed
    # gradient, grows like 1 / (gap to the next eigenphase) ~ max |cot|
    grad = np.max(np.abs(b[rows, :, j0].real), axis=1, initial=0.0)
    bad = grad > GRADIENT_TOL * np.maximum(1.0, np.max(np.abs(cot), axis=1))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CriticalPointViolated(f"{name(i)}: flux gradient {grad[i]:.2e}")
    b = np.take_along_axis(b, rest[:, None, :], axis=2)
    d2theta = -((b.conj() * cot[:, None, :]) @ b.mT).real
    p = (-1j * root_branch(graph, kappa) * np.prod(1.0 - np.exp(1j * theta_rest), axis=1)).real
    H = p[:, None, None] * d2theta

    scale = np.maximum(1.0, np.max(np.abs(H), axis=(1, 2), initial=0.0))
    off = np.max(np.abs(H[:, layout.off_block]), axis=1, initial=0.0)
    return _Hessians(H, p, off / scale, off > OFF_BLOCK_TOL * scale)


def _morse_indices(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, degenerate) of each symmetric matrix of a stack (..., m, m),
    from one stacked `eigvalsh`: its number of negative eigenvalues, and
    whether one lies within DEGENERACY_TOL of 0, relative to the largest."""
    if sym.shape[-1] == 0:
        return np.zeros(sym.shape[:-2], dtype=int), np.zeros(sym.shape[:-2], dtype=bool)
    w = np.linalg.eigvalsh(sym)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    degenerate = np.any(np.abs(w) < DEGENERACY_TOL * scale[..., None], axis=-1)
    return np.count_nonzero(w < 0, axis=-1), degenerate


def _block_indices(A: np.ndarray,
                   block_fluxes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(iota, degenerate): the Morse index of each block of each stability
    matrix of a stack (rows, blocks), with one stacked `eigvalsh` per block
    order, and whether any block of a row is degenerate."""
    iota = np.zeros((len(A), len(block_fluxes)), dtype=int)
    degenerate = np.zeros(len(A), dtype=bool)
    for order in sorted({len(grp) for grp in block_fluxes}):
        which = [j for j, grp in enumerate(block_fluxes) if len(grp) == order]
        idx = np.array([block_fluxes[j] for j in which])
        index, singular = _morse_indices(A[:, idx[:, :, None], idx[:, None, :]])
        iota[:, which] = index
        degenerate |= np.any(singular, axis=1)
    return iota, degenerate


def _check_block_sums(iota: np.ndarray, sigma: np.ndarray, skip: np.ndarray,
                      name: Callable[[int], str]):
    bad = ~skip & (np.sum(iota, axis=1) != sigma)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IdentityViolated(f"{name(i)}: local indices {iota[i].tolist()} do not "
                               f"sum to sigma_magnetic {sigma[i]}")


def morse_index(sym: np.ndarray) -> int:
    """Number of negative eigenvalues of a symmetric matrix; DegenerateHessian
    when one lies within DEGENERACY_TOL of 0, relative to the largest."""
    index, degenerate = _morse_indices(sym)
    if degenerate:
        raise DegenerateHessian(f"eigenvalues {np.linalg.eigvalsh(sym)}")
    return int(index)


class MagneticIndices(NamedTuple):
    """The magnetic indices of a batch of eigenpairs, one row per eigenpair;
    where `degenerate`, the flux Hessian leaves them undecided."""
    sigma: np.ndarray        # Morse index of the stability matrix
    iota: np.ndarray         # (eigenpairs, blocks): local indices, per block
    degenerate: np.ndarray


def indices_batch(graph: MetricGraph, eps: Eigenpairs) -> MagneticIndices:
    """Magnetic and local indices of a block of eigenpairs, stacked, from
    the eigenphases and couplings columns (each eigenpair needs an
    eigenphase within `kernel_cutoff` of 0 there): one product for the
    perturbation sums, one `eigvalsh` for the stability matrices and one per
    block order.  No decomposition of U is taken, and on a graph without
    fluxes (a tree) or for no eigenpairs nothing is computed: every index is
    0.  Elsewhere eigenpairs streamed without couplings raise ValueError.

    Fluxes sit on the canonical spanning tree.  A row whose Hessian has an
    off-block entry or a (block) eigenvalue too close to 0 is marked
    `degenerate`, as `hessian_alpha` or `local_indices` would raise
    DegenerateHessian for it alone; CriticalPointViolated and the
    local-index sum (IdentityViolated) raise, naming the eigenpair.
    """
    layout = _flux_layout(graph, None)
    if not layout.fluxes or not len(eps):
        return MagneticIndices(np.zeros(len(eps), dtype=int),
                               np.zeros((len(eps), len(layout.block_fluxes)), dtype=int),
                               np.zeros(len(eps), dtype=bool))
    if eps.couplings is None:
        raise ValueError(f"{eps.label(0)} carries no flux couplings; stream it "
                         "with couplings=True")
    h = _hessians(graph, layout, eps.kappa, eps.phases, eps.couplings,
                  kernel_cutoff(graph, eps.k), eps.label)
    A = -h.hessian / h.p[:, None, None]
    sigma, singular = _morse_indices(A)
    iota, block_singular = _block_indices(A, layout.block_fluxes)
    degenerate = h.off_block | singular | block_singular
    _check_block_sums(iota, sigma, degenerate, eps.label)
    return MagneticIndices(sigma, iota, degenerate)


def hessian_alpha(graph: MetricGraph, point,
                  tree: tuple[int, ...] | None = None) -> MagneticFrame:
    """Flux Hessian of the secular function at zero flux over a located
    spectrum point, with the block structure checked, never assumed: the
    batch of one of the stacked Hessians of `indices_batch`.

    `point` is an `Eigenpair` or a bare kappa.  An eigenpair must have an
    eigenphase theta_0 with |1 - e^{i theta_0}| at most `kernel_cutoff` at
    its k (the cutoff its reconstruction checked, which grows with k); it
    brings the eigenphases and couplings of the frame its kernel was read
    from, or, streamed without couplings on a graph with cycles, takes one
    spectral frame of U at its kappa.  A bare kappa takes that frame, with
    KERNEL_TOL in place of the cutoff.
    """
    layout = _flux_layout(graph, tree)
    if isinstance(point, Eigenpair):
        kappa, kernel_tol, name = point.kappa, kernel_cutoff(graph, point.k), point.label()
    else:
        kappa = reduce_torus(point)
        kernel_tol, name = KERNEL_TOL, f"kappa={kappa}"
    if isinstance(point, Eigenpair) and (point.couplings is not None or not layout.fluxes):
        theta = point.phases
        # a tree has no flux rows to read
        couplings = (np.zeros((graph.E, len(theta)), dtype=complex)
                     if point.couplings is None else point.couplings)
    else:
        frame = unitary_frame(evolution_matrix(graph, kappa), vectors=True)
        theta = frame.eigenphases
        a = frame.vectors[:, np.argmin(np.abs(1.0 - np.exp(1j * theta)))]
        couplings = edge_couplings(frame.vectors, a)
    h = _hessians(graph, layout, kappa[None], theta[None], couplings[None],
                  np.array([kernel_tol]), lambda i: name)
    if h.off_block[0]:
        raise DegenerateHessian(
            f"{name}: off-block Hessian entry {h.off_block_residual[0]:.2e} of the "
            "largest exceeds tolerance")
    H, p = h.hessian[0], float(h.p[0])
    return MagneticFrame(kappa=kappa, tree=layout.tree, fluxes=layout.fluxes,
                         hessian=H, p=p,
                         block_fluxes=[list(grp) for grp in layout.block_fluxes],
                         sigma_magnetic=morse_index(-H / p),
                         off_block_residual=float(h.off_block_residual[0]))


def local_indices(frame: MagneticFrame) -> list[int]:
    """Morse index of each block of the stability matrix; sums to the total.
    The batch of one of the block indices of `indices_batch`."""
    iota, degenerate = _block_indices(frame.stability_matrix()[None], frame.block_fluxes)
    if degenerate[0]:
        raise DegenerateHessian(f"a block of the stability matrix at kappa={frame.kappa} "
                                "has an eigenvalue too close to 0")
    _check_block_sums(iota, np.array([frame.sigma_magnetic]), degenerate,
                      lambda i: f"kappa={frame.kappa}")
    return iota[0].tolist()
