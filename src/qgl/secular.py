"""Bond scattering matrix, unitary evolution, and the secular function.

The torus coordinate `kappa` is a vector over edges with values in [0, 2pi).
All functions are pure in (graph, kappa); the only matrix they share is the
graph's read-only scattering matrix, so they can be mapped over points in
parallel without shared mutable state.

F is evaluated for a stack of points at a time (`secular_values`): one
stacked evolution matrix per stack of at most `stack_size(graph)` points and
one Schur factorization per point, with F = Re(root_branch * prod(1 - lambda))
spelled out in real arithmetic, so that a stack, a single point
(`secular_value`) and `evaluate` give the same F bit for bit.  The manifold
scan evaluates its grid and each bisection round as such stacks.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lapack

from .errors import NoLoops, UndefinedPhase, UnsupportedDimension
from .graphs import MetricGraph

TWO_PI = 2.0 * np.pi

KERNEL_TOL = 1e-8   # |1 - e^{i theta}| below this puts theta in the kernel of 1 - U
MANIFOLD_TOL = 1e-10  # bisection width of a zero of F along a grid line
BATCH_ENTRIES = 2 ** 15  # complex entries per stacked array of matrices


def reduce_torus(x):
    """Map coordinates into [0, 2pi)."""
    t = np.asarray(x, dtype=float) % TWO_PI
    # x % 2pi can round up to exactly 2pi for tiny negative x
    return np.where(t == TWO_PI, 0.0, t)


def embed_half_closed(theta):
    """r_{2pi}: angles into (0, 2pi]."""
    t = np.asarray(theta) % TWO_PI
    return np.where(t == 0.0, TWO_PI, t)


def bond_scattering(graph: MetricGraph) -> np.ndarray:
    """Real orthogonal 2E x 2E matrix: entry (d, d') is nonzero iff d' flows
    into the tail vertex of d; back-scatter entries are 2/deg - 1, all other
    transmissions 2/deg."""
    n = 2 * graph.E
    S = np.zeros((n, n))
    for d in range(n):
        v = graph.tail_of(d)
        coef = 2.0 / graph.degrees[v]
        for d_in in range(n):
            if graph.head_of(d_in) != v:
                continue
            S[d, d_in] = coef - 1.0 if d_in == (d ^ 1) else coef
    return S


def stack_size(graph: MetricGraph) -> int:
    """Points (kappa or k) per stack: as many as keep a stacked array of
    2E x 2E matrices near BATCH_ENTRIES complex entries."""
    return max(1, BATCH_ENTRIES // (2 * graph.E) ** 2)


def _stacks(graph: MetricGraph, count: int):
    """Consecutive slices of `count` points, one per stack."""
    step = stack_size(graph)
    return (slice(s, s + step) for s in range(0, count, step))


def _phase_diag(kappa: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.repeat(kappa, 2, axis=-1))


def evolution_matrix(graph: MetricGraph, kappa) -> np.ndarray:
    return _phase_diag(np.asarray(kappa, dtype=float))[..., None] * graph.scattering


def root_branch(graph: MetricGraph, kappa):
    """The fixed branch of det(U)^(-1/2): i^(betti-1) * exp(-i sum kappa),
    per point of a stack (..., E)."""
    beta = graph.topology.betti
    return (1j) ** (beta - 1) * np.exp(-1j * np.sum(kappa, axis=-1))


def _product(a, b):
    """(Re, Im) of a * b as real arithmetic.  numpy's complex array multiply
    may fuse a multiply and an add where its scalar multiply does not, so a
    stack and a point round alike only when the product is spelled out."""
    return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real


def _no_sort(_):
    return None   # zgees' eigenvalue-ordering callback, unused with sort_t=0


@functools.cache
def _schur_lwork(n: int) -> int:
    """The workspace size zgees asks for; it depends on the order alone."""
    query = lapack.zgees(_no_sort, np.eye(n, dtype=complex), lwork=-1)
    return int(query[-2][0].real)


def _schur(U: np.ndarray, lwork: int):
    """The diagonal of the complex Schur form T of a finite matrix (zgees
    returns it as w, with w(i) = T(i, i)) and the Schur vectors."""
    _, _, w, Z, _, info = lapack.zgees(_no_sort, U, lwork=lwork)
    if info != 0:
        raise LinAlgError(f"Schur form not found (zgees info {info})")
    return w, Z


def unitary_schur(U: np.ndarray):
    """Eigenvalues and an orthonormal eigenbasis of a unitary matrix via the
    complex Schur form (exact-arithmetic diagonal for normal matrices).

    Makes the LAPACK call of scipy.linalg.schur(U, output="complex"), with its
    finiteness check and errors, but queries the workspace size once per
    matrix order instead of before every factorization; the factors are
    bit-identical."""
    U = np.asarray_chkfinite(U, dtype=complex)
    return _schur(U, _schur_lwork(U.shape[0]))


def adjugate_from_unitary_spectrum(eigenvalues: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """adj(1 - U) for unitary U = basis diag(eigenvalues) basis*."""
    w = 1.0 - eigenvalues
    n = len(w)
    # leave-one-out products prod_{i != j} (1 - lambda_i)
    pref = np.empty(n, dtype=complex)
    suff = np.empty(n, dtype=complex)
    acc = 1.0 + 0j
    for i in range(n):
        pref[i] = acc
        acc *= w[i]
    acc = 1.0 + 0j
    for i in range(n - 1, -1, -1):
        suff[i] = acc
        acc *= w[i]
    loo = pref * suff
    return (basis * loo) @ basis.conj().T


@dataclass
class SecularEvaluation:
    kappa: np.ndarray
    F: float
    imag_residual: float
    gradF: np.ndarray
    p: float
    m: np.ndarray | None          # per-edge weights, None off the kernel
    eigenphases: np.ndarray       # in [0, 2pi)
    kernel_dim: int
    kernel_vector: np.ndarray | None


def secular_values(graph: MetricGraph, kappas) -> np.ndarray:
    """F at each point of a stack (m, E): the arithmetic of
    `evaluate(graph, kappa).F` row by row, without the adjugate, gradient
    and kernel.  Each stack of at most `stack_size(graph)` points takes one
    stacked evolution matrix and one Schur factorization per point."""
    n = 2 * graph.E
    lwork = _schur_lwork(n)
    F = np.empty(len(kappas))
    for part in _stacks(graph, len(kappas)):
        kappa = reduce_torus(kappas[part])
        U = np.asarray_chkfinite(evolution_matrix(graph, kappa))
        lam = np.empty((len(U), n), dtype=complex)
        for i, Ui in enumerate(U):
            lam[i] = _schur(Ui, lwork)[0]
        F[part] = _product(root_branch(graph, kappa), np.prod(1.0 - lam, axis=-1))[0]
    return F


def secular_value(graph: MetricGraph, kappa) -> float:
    """F(kappa): `secular_values` of a stack of one point."""
    return float(secular_values(graph, np.asarray(kappa, dtype=float)[None])[0])


def evaluate(graph: MetricGraph, kappa) -> SecularEvaluation:
    kappa = reduce_torus(kappa)
    U = evolution_matrix(graph, kappa)
    lam, Z = unitary_schur(U)
    pref = root_branch(graph, kappa)

    det_one_minus = np.prod(1.0 - lam)
    F, F_imag = _product(pref, det_one_minus)
    adj = adjugate_from_unitary_spectrum(lam, Z)
    p = (-1j * pref * np.trace(adj)).real

    # Jacobi: d det(1 - U) / d kappa_e = -i tr(adj(1 - U) A_e U), and the
    # branch prefactor contributes -i F per coordinate.
    W = U @ adj
    diag = np.diagonal(W)
    per_edge = diag[0::2] + diag[1::2]
    gradFc = -1j * pref * (det_one_minus + per_edge)
    gradF = gradFc.real

    gaps = np.abs(1.0 - lam)
    kernel_dim = int(np.sum(gaps < KERNEL_TOL))
    kernel_vector = None
    m = None
    if kernel_dim == 1:
        j = int(np.argmin(gaps))
        a = Z[:, j]
        kernel_vector = a
        m = np.abs(a[0::2]) ** 2 + np.abs(a[1::2]) ** 2

    return SecularEvaluation(
        kappa=kappa,
        F=float(F),
        imag_residual=float(abs(F_imag)),
        gradF=gradF,
        p=float(p),
        m=m,
        eigenphases=reduce_torus(np.angle(lam)),
        kernel_dim=kernel_dim,
        kernel_vector=kernel_vector,
    )


# ---------------------------------------------------------------------------
# torus maps


def inversion(kappa) -> np.ndarray:
    return reduce_torus(-np.asarray(kappa, dtype=float))


def bridge_extension(graph: MetricGraph, kappa, bridge: int) -> np.ndarray:
    if bridge not in graph.topology.bridges:
        raise ValueError(f"edge {bridge} is not a bridge")
    out = reduce_torus(kappa).copy()
    out[bridge] = (out[bridge] + np.pi) % TWO_PI
    return out


def cut_flip(graph: MetricGraph, kappa, vertex: int, bridge: int) -> np.ndarray:
    """Flip the component of `vertex` in the bridge split: kappa_e picks up
    the far-side scattering phase and the far-side coordinates are inverted."""
    fac = bridge_factorization(graph, bridge, kappa, far_vertex=vertex)
    out = reduce_torus(kappa).copy()
    out[bridge] = (out[bridge] + fac.theta2) % TWO_PI
    out[list(fac.edges2)] = reduce_torus(-out[list(fac.edges2)])
    return out


# ---------------------------------------------------------------------------
# bridge factorization


@dataclass
class BridgeFactorization:
    bridge: int
    edges1: tuple[int, ...]      # undirected edges of the near component
    edges2: tuple[int, ...]
    g1: complex                  # includes the branch prefactor of the side
    g2: complex
    phase1: complex              # unimodular e^{i Theta_i}
    phase2: complex

    @property
    def theta1(self) -> float:
        return float(np.angle(self.phase1))

    @property
    def theta2(self) -> float:
        return float(np.angle(self.phase2))

    def secular_value(self, kappa_bridge: float) -> complex:
        z = np.exp(1j * kappa_bridge)
        return self.g1 * self.g2 / z * (1.0 - z * z * self.phase1 * self.phase2)


def _bridge_split(graph: MetricGraph, bridge: int) -> tuple[list[int], list[int]]:
    """Vertex sets of the two components of the graph minus the bridge; the
    first component contains the bridge's tail."""
    adj: list[list[int]] = [[] for _ in range(graph.V)]
    for i, e in enumerate(graph.edges):
        if i == bridge:
            continue
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    comp = [-1] * graph.V
    for mark, start in ((0, graph.edges[bridge].tail), (1, graph.edges[bridge].head)):
        if comp[start] != -1:
            continue
        comp[start] = mark
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if comp[w] == -1:
                    comp[w] = mark
                    stack.append(w)
    side1 = [v for v in range(graph.V) if comp[v] == 0]
    side2 = [v for v in range(graph.V) if comp[v] == 1]
    return side1, side2


def bridge_factorization(graph: MetricGraph, bridge: int, kappa,
                         far_vertex: int | None = None) -> BridgeFactorization:
    """Split F across a bridge: F = g1 g2 e^{-i kappa_e} (1 - e^{2i kappa_e}
    e^{i Theta1} e^{i Theta2}).

    The bridge is oriented from side 1 to side 2; `far_vertex`, when given,
    forces its component to be side 2.
    """
    if bridge not in graph.topology.bridges:
        raise ValueError(f"edge {bridge} is not a bridge")
    kappa = reduce_torus(kappa)
    side1, side2 = _bridge_split(graph, bridge)
    if far_vertex is not None and far_vertex in side1:
        side1, side2 = side2, side1
    in1 = [False] * graph.V
    for v in side1:
        in1[v] = True

    edges1 = tuple(i for i, e in enumerate(graph.edges) if i != bridge and in1[e.tail])
    edges2 = tuple(i for i, e in enumerate(graph.edges) if i != bridge and not in1[e.tail])
    # directed bridge index pointing from side 1 into side 2
    d_f = 2 * bridge if in1[graph.edges[bridge].tail] else 2 * bridge + 1
    d_r = d_f ^ 1

    S = graph.scattering
    dir1 = [d for i in edges1 for d in (2 * i, 2 * i + 1)]
    dir2 = [d for i in edges2 for d in (2 * i, 2 * i + 1)]

    def side_data(dirs, t_col_from, t_row_at):
        Si = S[np.ix_(dirs, dirs)]
        t = S[dirs, t_col_from]
        t_row = S[t_row_at, dirs]
        z = np.exp(1j * kappa[[d // 2 for d in dirs]])
        D = z[:, None] * Si - np.eye(len(dirs))
        g_tilde = np.linalg.det(D) if len(dirs) else 1.0 + 0j
        r = S[t_row_at, t_col_from]
        if len(dirs):
            phase = r - t_row @ (np.linalg.pinv(D) @ (z * t))
        else:
            phase = r + 0j
        return g_tilde, complex(phase), z

    g1_tilde, phase1, _ = side_data(dir1, d_r, d_f)
    g2_tilde, phase2, _ = side_data(dir2, d_f, d_r)

    beta = graph.topology.betti
    g1 = (1j) ** (beta - 1) * np.exp(-1j * float(np.sum(kappa[list(edges1)]))) * g1_tilde
    g2 = np.exp(-1j * float(np.sum(kappa[list(edges2)]))) * g2_tilde
    if abs(g1_tilde) < 1e-13 or abs(g2_tilde) < 1e-13:
        raise UndefinedPhase(
            f"bridge {bridge}: a side determinant vanishes at kappa={kappa}")
    return BridgeFactorization(
        bridge=bridge, edges1=edges1, edges2=edges2,
        g1=complex(g1), g2=complex(g2),
        phase1=phase1 / abs(phase1), phase2=phase2 / abs(phase2),
    )


# ---------------------------------------------------------------------------
# loop factors


def loop_basis(graph: MetricGraph) -> tuple[np.ndarray, list[int]]:
    """Orthogonal change of basis sending each loop's directed pair (d, d-hat)
    to (d - d_hat)/sqrt2, (d + d_hat)/sqrt2.  Returns (Q, antisymmetric
    column indices); columns not belonging to loops are identity."""
    n = 2 * graph.E
    Q = np.eye(n)
    anti = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in graph.topology.loops:
        d, dr = 2 * i, 2 * i + 1
        Q[:, d] = 0.0
        Q[:, dr] = 0.0
        Q[d, d] = inv_sqrt2
        Q[dr, d] = -inv_sqrt2
        Q[d, dr] = inv_sqrt2
        Q[dr, dr] = inv_sqrt2
        anti.append(d)
    return Q, anti


def _loop_reduced_determinants(graph: MetricGraph, kappas) -> np.ndarray:
    """`loop_reduced_determinant` at each point of a stack (m, E), one
    stacked `det` per stack of at most `stack_size(graph)` points."""
    if not graph.topology.loops:
        raise NoLoops("graph has no loops")
    Q, anti = loop_basis(graph)
    keep = [j for j in range(2 * graph.E) if j not in set(anti)]
    one = np.eye(len(keep))
    dets = np.empty(len(kappas), dtype=complex)
    for part in _stacks(graph, len(kappas)):
        Ur = Q.T @ evolution_matrix(graph, reduce_torus(kappas[part])) @ Q
        dets[part] = np.linalg.det(one - Ur[:, keep][:, :, keep])
    return dets


def loop_reduced_determinant(graph: MetricGraph, kappa) -> complex:
    """det(1 - U_0): the determinant after splitting off the loop factors,
    so that det(1 - U) = prod_loops (1 - e^{i kappa_e}) det(1 - U_0)."""
    return complex(_loop_reduced_determinants(graph, np.asarray(kappa, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# secular manifold sampling (3-edge graphs)


def sample_manifold(graph: MetricGraph, resolution: int = 60):
    """Point cloud of the zero set of F for a 3-edge graph.

    Scans grid lines of [0, 2pi)^3 along each axis, bisects sign changes of F,
    and tags points separately when they come from a loop factor plane
    (kappa_e = 0 with nonvanishing reduced determinant).

    F is taken once at each grid point (t = 2pi on a line is t = 0), in one
    `secular_values` call.  The sign-change brackets of all lines are then
    bisected in lockstep: each round evaluates the midpoints of all brackets
    still wider than MANIFOLD_TOL in one call, and keeps the half whose ends
    differ in sign, as a bracket bisected alone would.  The grid points of a
    loop plane take stacked loop-reduced determinants.

    Yields rows (k1, k2, k3, component) with component "regular" or
    "loop:<edge>", regular rows by axis, line and t, then loop rows by plane.
    """
    if graph.E != 3:
        raise UnsupportedDimension(f"manifold sampling needs E = 3, got {graph.E}")
    grid = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    ends = np.append(grid, TWO_PI)
    cube = np.stack(np.meshgrid(grid, grid, grid, indexing="ij", copy=False), axis=-1)
    F = secular_values(graph, cube.reshape(-1, 3)).reshape(cube.shape[:3])

    # brackets as flat arrays: line point (its axis coordinate is set per
    # round), axis, ends and F at the lower end
    points, axis, lo, hi, flo = [], [], [], [], []
    for a in range(3):
        others = [b for b in range(3) if b != a]
        lines = np.moveaxis(F, a, -1)
        sign = np.sign(np.concatenate([lines, lines[..., :1]], axis=-1))
        u, v, j = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
        base = np.zeros((len(j), 3))
        base[:, others[0]] = grid[u]
        base[:, others[1]] = grid[v]
        points.append(base)
        axis.append(np.full(len(j), a))
        lo.append(ends[j])
        hi.append(ends[j + 1])
        flo.append(lines[u, v, j])
    points, axis, lo, hi, flo = map(np.concatenate, (points, axis, lo, hi, flo))

    brackets = np.arange(len(axis))
    active = brackets[hi - lo > MANIFOLD_TOL]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        pm = points[active]
        pm[np.arange(len(active)), axis[active]] = mid
        fm = secular_values(graph, pm)
        down = np.sign(flo[active]) * np.sign(fm) <= 0
        hi[active[down]] = mid[down]
        lo[active[~down]] = mid[~down]
        flo[active[~down]] = fm[~down]
        active = active[hi[active] - lo[active] > MANIFOLD_TOL]
    points[brackets, axis] = 0.5 * (lo + hi)
    out = [(*pt, "regular") for pt in (points % TWO_PI).tolist()]

    # loop-factor sheets: entire kappa_e = 0 planes minus the regular part
    plane = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    for i in sorted(graph.topology.loops):
        pts = np.zeros((len(plane), 3))
        pts[:, [a for a in range(3) if a != i]] = plane
        det = _loop_reduced_determinants(graph, pts)
        # np.hypot rounds as abs(complex) does; np.abs(det) differs in the last bit
        keep = np.hypot(det.real, det.imag) > 1e-10
        out += [(*pt, f"loop:{i}") for pt in pts[keep].tolist()]
    return out
