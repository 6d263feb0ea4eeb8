"""Eigenvalue localization and eigenfunction reconstruction.

Localization never sign-scans the secular function.  It works on spectral
frames of the unitary bond evolution matrix U(k): the eigenphases of U(k),
and on request its eigenvectors, from one Hermitian eigendecomposition of the
Cayley transform H = i(1 - V)(1 + V)^-1 of V = e^{-i phi} U, whose eigenvalues
are tan((theta - phi) / 2).  The rotation phi keeps the transform's pole
(theta = phi + pi) away from the eigenphases 0 and pi, where the spectra of
bipartite graphs sit in symmetric pairs; a frame with an eigenphase too close
to the pole is solved again with the pole moved into the widest gap.

The eigenphase counting function is an exact integer step function away from
eigenvalues, and every eigenphase of U(k) = e^{ikL} S turns counterclockwise
at a speed <z, L z> in [l_min, l_max] (Kottos-Smilansky, Ann. Phys. 274,
1999).  So a frame at k_f brackets the next eigenvalue: none lies before
k_f + min(2pi - theta) / l_max, and one lies at or before
k_f + min(2pi - theta) / l_min.  When a second eigenphase could reach 2pi
inside that bracket, an exact count at its upper end says how many crossings
it holds, and it is bisected while it holds more than one, so near-degenerate
clusters cannot hide a root.  Inside a bracket holding one crossing, Newton
steps on the crossing eigenphase (slope <z, L z> for its eigenvector z)
start at the first-order prediction.  The first steps take no frame: inverse
iteration on U(k) - 1, one LU solve each, follows the eigenvector x of the
eigenphase nearest 0 and reads that eigenphase as arg(x* U x).  Full frames
take over near the root, where a safeguarded iteration on the eigenphase
nearest 0 converges; the count from each frame tightens the bracket, and a
step leaving the bracket is replaced by bisection.  Tracking only decides
where the first frame is taken, so a root usually costs one frame.

Every accepted root is audited by the integer counts at k* - delta and
k* + delta.  The final Newton frame gives them exactly when each of its
eigenphases is either too far from 0 to reach it within delta or near enough
to cross it there, with a rounding bound that grows with k; otherwise they
are re-counted afresh.  When the audit fails, the bracket is bisected down to
the tolerance instead.  The frame that audited a root, with the eigenphases
that crossed there set to 0, brackets the next one.

An eigenfunction is read from one more frame, with eigenvectors, at the
located k: its eigenvectors whose eigenphases lie at 0 span the kernel of
1 - U(k).  Located levels are reconstructed in batches bounded by memory
(about BATCH_ENTRIES complex entries per stacked array): one stacked `inv`
and `eigh` gives the frames of a batch, and the kernel pick, phase
alignment, vertex trace, canonical sign and residual are array operations
over it, each row computed as it would be alone.  The eigenpair keeps its
frame, which the flux Hessian reuses, and its vertex trace as two arrays
indexed by directed edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BracketAuditFailed, NoKernel, NonSimple
from .graphs import MetricGraph
from .secular import KERNEL_TOL, TWO_PI, evolution_matrix

LOCATE_TOL = 1e-12   # absolute tolerance factor: tol * max(1, k)
INTEGER_SLACK = 1e-6  # counting values this close to an integer are exact counts

POLE_ROTATION = 1.0  # phi: the Cayley pole sits at the eigenphase phi + pi
POLE_LIMIT = 1e4     # largest |tan((theta - phi) / 2)| accepted without re-solving
NEWTON_ITERATIONS = 60
TRACK_ITERATIONS = 8  # inverse-iteration steps before the first Newton frame
TRACK_HANDOFF = 1e-7  # a tracking step below this times max(1, k) ends tracking
PSI_EXACT = 1e-10    # nearest eigenphase farther from 0 than this: count is exact
EDGE_MARGIN = 10.0   # window edges keep this many audit steps from eigenvalues
# bound on the eigensolver's rounding of an eigenphase: 500 times the worst
# error against np.linalg.eigvals over 15000 frames of five graphs (2e-12)
PHASE_ROUNDING = 1e-9
BATCH_ENTRIES = 2 ** 15  # complex entries per stacked array of a reconstruction batch
# a vertex value or derivative below this leaves its sign, and so the closed
# form counts, undecided
TRACE_FLOOR = 1e-6


@dataclass(frozen=True)
class Thresholds:
    value: float = TRACE_FLOOR
    derivative: float = TRACE_FLOOR
    support: float = 1e-8

    @staticmethod
    def from_dict(d: dict | None) -> "Thresholds":
        """Thresholds from a JSON object of overrides; ValueError unless
        every key is a field and every value a finite positive number, with
        `value` and `derivative` at or above TRACE_FLOOR."""
        if d is None:
            return Thresholds()
        if not isinstance(d, dict):
            raise ValueError(f"thresholds must be a JSON object, got {d!r}")
        names = [f.name for f in fields(Thresholds)]
        for key, x in d.items():
            if key not in names:
                raise ValueError(f"unknown threshold '{key}' (accepted: {', '.join(names)})")
            if isinstance(x, bool) or not isinstance(x, (int, float)) \
                    or not 0 < x < np.inf:
                raise ValueError(f"threshold '{key}' must be a finite positive number, got {x!r}")
            if key != "support" and x < TRACE_FLOOR:
                raise ValueError(f"threshold '{key}' {x!r} is below the trace floor "
                                 f"{TRACE_FLOOR} that the counts need")
        return Thresholds(**d)


class UnitaryFrame(NamedTuple):
    eigenphases: np.ndarray         # in [0, 2pi)
    vectors: np.ndarray | None      # orthonormal eigenvectors as columns
    rotation: float | np.ndarray    # the phi finally used (per matrix of a stack)


def _cayley_frame(U: np.ndarray, phi: float, vectors: bool):
    """(h, theta, Z): eigenvalues of the Cayley transform of e^{-i phi} U
    (a matrix or a stack), the eigenphases they give and, if `vectors`, the
    eigenvectors."""
    # i(1 - V)(1 + V)^-1 = 2iW - i with W = (1 + V)^-1; its Hermitian
    # part i(W - W*) drops the rounding that breaks the symmetry
    W = np.linalg.inv(np.eye(U.shape[-1]) + np.exp(-1j * phi) * U)
    H = 1j * (W - W.conj().mT)
    if vectors:
        h, Z = np.linalg.eigh(H)
    else:
        h, Z = np.linalg.eigvalsh(H), None
    return h, (phi + 2.0 * np.arctan(h)) % TWO_PI, Z


def unitary_frame(U: np.ndarray, vectors: bool = False) -> UnitaryFrame:
    """Eigenphases (and eigenvectors) of a unitary matrix, or of each matrix
    of a stack (..., n, n), from `eigh` of its Cayley transform.

    Rounding in the transform grows with max |h|, so a matrix whose largest
    |h| exceeds POLE_LIMIT is solved once more, alone, with the pole rotated
    into the widest gap between the eigenphases it found (those are
    accurate enough to place the pole, and the widest of n gaps is at least
    2pi / n).  Each matrix of a stack gets the frame it would get alone;
    `rotation` is then an array over the stack.
    """
    h, theta, Z = _cayley_frame(U, POLE_ROTATION, vectors)
    rotation = np.full(U.shape[:-2], POLE_ROTATION)
    far = np.max(np.abs(h), axis=-1) > POLE_LIMIT
    # np.any first: np.argwhere costs more than the check it usually skips
    indices = map(tuple, np.argwhere(far)) if np.any(far) else ()
    for i in indices:
        ordered = np.sort(theta[i])
        gaps = np.diff(ordered, append=ordered[0] + TWO_PI)
        j = int(np.argmax(gaps))
        rotation[i] = ordered[j] + 0.5 * gaps[j] - np.pi
        _, theta[i], Z_i = _cayley_frame(U[i], rotation[i], vectors)
        if vectors:
            Z[i] = Z_i
    return UnitaryFrame(np.where(theta == TWO_PI, 0.0, theta), Z,
                        float(rotation) if rotation.ndim == 0 else rotation)


@dataclass
class CountingFrame:
    k: float
    eigenphases: np.ndarray         # of U(k), in [0, 2pi)
    N: float
    vectors: np.ndarray | None = None   # eigenvectors, when asked for


def counting(graph: MetricGraph, k: float, vectors: bool = False) -> CountingFrame:
    """Number of eigenvalues in (0, k] (exact integer for generic k), with
    the eigenphases of U(k) and, if `vectors`, its eigenvectors."""
    frame = unitary_frame(
        evolution_matrix(graph, np.asarray(graph.lengths) * k % TWO_PI), vectors)
    theta = frame.eigenphases
    weyl = graph.total_length * k / np.pi
    N = weyl + (graph.E + graph.V) / 2.0 - 1.0 - float(np.sum(theta)) / TWO_PI
    return CountingFrame(k=k, eigenphases=theta, N=N, vectors=frame.vectors)


@dataclass
class LocatedLevel:
    n: int                # spectral index of the first eigenvalue at this k
    k: float
    multiplicity: int
    loop_dims: int        # kernel dimensions carried by loop factors


class _Counter:
    """Counting-function evaluations with integer rounding and call tally."""

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self.lengths = np.asarray(graph.lengths)
        self.dir_lengths = np.repeat(self.lengths, 2)
        self.l_min, self.l_max = graph.min_length, max(graph.lengths)
        self.calls = 0

    def frame(self, k: float, vectors: bool = False) -> CountingFrame:
        self.calls += 1
        return counting(self.graph, k, vectors)

    def exact(self, k: float, vectors: bool = False) -> tuple[int, CountingFrame]:
        """The integer count at k, with its frame."""
        frame = self.frame(k, vectors)
        val = frame.N
        if abs(val - round(val)) > INTEGER_SLACK:
            raise BracketAuditFailed(
                f"counting value {val} at k={k} is not an integer; "
                "evaluation too close to an eigenvalue")
        return int(round(val)), frame

    def integer(self, k: float) -> int:
        return self.exact(k)[0]


def _loop_dims_at(graph: MetricGraph, k: float, tol: float) -> int:
    hits = 0
    for i in graph.topology.loops:
        if abs(np.exp(1j * k * graph.lengths[i]) - 1.0) < tol:
            hits += 1
    return hits


def _signed(theta: np.ndarray) -> np.ndarray:
    """Eigenphases in [-pi, pi)."""
    return (theta + np.pi) % TWO_PI - np.pi


def _audit_step(k: float) -> float:
    """The delta of the audit at k_star +- delta around a root near k."""
    return max(1e-8, 1e-8 * k)


def _phase_rounding(graph: MetricGraph, k: float) -> float:
    """Bound on the rounding error of a frame's eigenphases at k.

    The eigensolver's share stays below PHASE_ROUNDING; kappa = l k mod 2pi
    adds about 1e-16 l k, which the kernel cutoff's growth 10 LOCATE_TOL k L
    covers many times over.
    """
    return max(PHASE_ROUNDING, 10.0 * LOCATE_TOL * max(1.0, k) * graph.total_length)


class _Audit(NamedTuple):
    n_below: int                # counts at k_star - delta and k_star + delta
    n_above: int
    frame: CountingFrame        # with vectors; it brackets the next level
    phases: np.ndarray          # its eigenphases, those crossing at k_star set to 0


def _certified_counts(ctr: _Counter, frame: CountingFrame, k_star: float,
                      delta: float) -> _Audit | None:
    """The audit read off the final Newton frame at a root k_star, or None
    when that frame does not decide it.

    [k_star - delta, k_star + delta] lies within s = delta + |k_f - k_star|
    of the frame's k_f, and every eigenphase turns counterclockwise at a
    speed in [l_min, l_max].  So an eigenphase with |psi| above
    l_max s + rho (rho the rounding bound) stays on its side of 0 there, and
    one with |psi| below l_min (delta - |k_f - k_star|) - rho crosses 0 there
    once.  When each eigenphase is one or the other, the count below is the
    frame's count less the crossing eigenphases already past 0, decided from
    the raw theta < pi: an eigenphase at 2pi - eps reads psi = 0 but is not
    counted in N.
    """
    if abs(frame.N - round(frame.N)) > INTEGER_SLACK:
        return None
    d = abs(frame.k - k_star)
    rho = _phase_rounding(ctr.graph, frame.k)
    theta = frame.eigenphases
    psi = np.abs(_signed(theta))
    crossing = psi < ctr.l_min * (delta - d) - rho
    if np.any(~crossing & (psi <= ctr.l_max * (delta + d) + rho)):
        return None
    n_below = int(round(frame.N)) - int(np.count_nonzero(crossing & (theta < np.pi)))
    return _Audit(n_below, n_below + int(np.count_nonzero(crossing)), frame,
                  np.where(crossing, 0.0, theta))


def _recount(ctr: _Counter, k_star: float, delta: float) -> _Audit:
    """The audit by fresh counts at k_star - delta and k_star + delta."""
    n_below = ctr.integer(k_star - delta)
    n_above, frame = ctr.exact(k_star + delta, vectors=True)
    return _Audit(n_below, n_above, frame, frame.eigenphases)


def _phase_bracket(ctr: _Counter, frame: CountingFrame, phases: np.ndarray,
                   lo: float) -> tuple[float, float, float, bool, np.ndarray]:
    """(a, b, start, lone, z): a bracket [a, b] of the next eigenvalue past
    `lo` from a frame at k_f <= lo whose count holds at lo, a Newton start,
    whether the bracket holds at most one crossing, and the eigenvector z of
    the eigenphase that crosses next.

    Eigenphase m reaches 2pi after turning r_m = 2pi - theta_m further, at a
    speed in [l_min, l_max]: no eigenvalue lies before k_f + min r / l_max,
    and one lies at or before k_f + min r / l_min.  Both bounds are padded
    by the rounding bound and two audit steps, since a loop state turns at
    exactly its loop length and so can sit on one.  The bracket is `lone`
    when no second eigenphase can reach 2pi by b; the first one's second
    turn cannot either, as it needs r_1 + 2pi >= r_2.  The start is the
    first-order prediction k_f + r_1 / <z, L z>.
    """
    k_f = frame.k
    r = TWO_PI - phases
    rho = _phase_rounding(ctr.graph, k_f)
    m = int(np.argmin(r))
    r1, r2 = np.partition(r, 1)[:2]
    pad = 2.0 * _audit_step(k_f + r1 / ctr.l_min)
    a = max(lo, k_f + (r1 - rho) / ctr.l_max - pad)
    b = k_f + (r1 + rho) / ctr.l_min + pad
    lone = k_f + (r2 - rho) / ctr.l_max - pad > b
    z = frame.vectors[:, m]
    start = k_f + r1 / float(ctr.dir_lengths @ (np.abs(z) ** 2))
    return a, b, start, lone, z


def _track(ctr: _Counter, a: float, b: float, k: float, z: np.ndarray) -> float:
    """Where the first full frame of a Newton iteration in [a, b] is taken:
    the eigenphase of U(k) nearest 0, followed from k by inverse iteration.

    Each step solves (U(k) - 1) x = z, one LU solve in place of a full
    frame, and takes x / |x| as the new z; its eigenphase psi = arg(x* U x)
    turns at speed <x, L x>, so k moves by -psi / <x, L x>.  Tracking stops
    once a step would leave [a, b], the solve fails, or a step falls below
    TRACK_HANDOFF * max(1, k).
    """
    identity = np.eye(len(z))
    for _ in range(TRACK_ITERATIONS):
        U = evolution_matrix(ctr.graph, ctr.lengths * k % TWO_PI)
        try:
            x = np.linalg.solve(U - identity, z)
        except np.linalg.LinAlgError:
            break
        x = x / np.linalg.norm(x)
        step = -np.angle(np.vdot(x, U @ x)) / float(ctr.dir_lengths @ (np.abs(x) ** 2))
        if not a <= k + step <= b:
            break
        k, z = k + step, x
        if abs(step) < TRACK_HANDOFF * max(1.0, k):
            break
    return k


def _safeguarded_newton(ctr: _Counter, a: float, b: float, target: int,
                        tol: float, k: float,
                        z: np.ndarray | None) -> tuple[float, CountingFrame] | None:
    """Root of the eigenphase nearest 0 inside the bracket [a, b], where the
    count is below `target` at a and reaches it at b, from the start k.

    Given the eigenvector z of the crossing eigenphase, `_track` first moves
    the start close to the root without a frame.  From there,
    Newton steps -psi / <z, L z> that stay inside the bracket are taken, the
    others become bisections; a frame whose nearest eigenphase is clear of 0
    is an exact count and moves one end of the bracket.  Returns the root
    with the last frame, taken within tol of it, whose eigenphases and
    vectors audit the root and bracket the next one; or None when the
    iteration does not settle.
    """
    if z is not None:
        k = _track(ctr, a, b, k, z)
    for _ in range(NEWTON_ITERATIONS):
        frame = ctr.frame(k, vectors=True)
        psi = _signed(frame.eigenphases)
        j = int(np.argmin(np.abs(psi)))
        if abs(psi[j]) > PSI_EXACT and abs(frame.N - round(frame.N)) <= INTEGER_SLACK:
            if round(frame.N) >= target:
                b = k
            else:
                a = k
        slope = float(ctr.dir_lengths @ (np.abs(frame.vectors[:, j]) ** 2))
        step = -psi[j] / slope
        k_next = k + step
        if not a <= k_next <= b:
            k_next = 0.5 * (a + b)
        if abs(k_next - k) < 0.25 * tol or b - a < tol:
            return k_next, frame
        k = k_next
    return None


def locate_spectrum(graph: MetricGraph, count: int | None = None,
                    k_max: float | None = None, k_min: float = 0.0,
                    n_offset: int | None = None) -> list[LocatedLevel]:
    """Locate eigenvalues, either the first `count` of them or all in
    (k_min, k_max].  Indexing starts at n = 1 for the first positive
    eigenvalue (n = 0, the constant eigenfunction, is never emitted).
    """
    if (count is None) == (k_max is None):
        raise ValueError("specify exactly one of count, k_max")
    return list(_first(_walk(graph, k_min, k_max, n_offset), count))


def _walk(graph: MetricGraph, k_min: float = 0.0, k_max: float | None = None,
          n_offset: int | None = None) -> Iterator[LocatedLevel]:
    """The levels in (k_min, k_max] in order, each located when asked for;
    without `k_max` the walk does not end.  `n_offset` is the count at k_min
    when known (it is measured otherwise)."""
    ctr = _Counter(graph)
    if k_min <= 0.0:
        lo = 1e-6 * np.pi / graph.total_length
        n, frame = ctr.exact(lo, vectors=True)
        if n != 0:
            raise BracketAuditFailed(f"counting at k->0+ gives {n}, not 0")
    else:
        lo = k_min
        if n_offset is None:
            n, frame = ctr.exact(lo, vectors=True)
        else:
            n, frame = n_offset, ctr.frame(lo, vectors=True)
    phases = frame.eigenphases

    top = np.inf if k_max is None else k_max
    while lo < top:
        target = n + 1
        a, b, start, lone, z = _phase_bracket(ctr, frame, phases, lo)
        if b >= top:
            n_hi = ctr.integer(top)
            if n_hi < target:
                return   # k_max reached without another eigenvalue
            b = top
        elif lone:
            n_hi = target
        else:
            n_hi = ctr.integer(b)
            if n_hi < target:
                raise BracketAuditFailed(
                    f"no eigenvalue in ({a}, {b}], inside the phase-velocity bound")
        # bisect while the bracket holds more than one crossing, down to a
        # coarse width for clusters
        coarse = 1e-5 * max(1.0, b)
        while n_hi > target and b - a > coarse:
            mid = 0.5 * (a + b)
            n_mid = ctr.integer(mid)
            if n_mid >= target:
                b, n_hi = mid, n_mid
            else:
                a = mid
        abs_tol = LOCATE_TOL * max(1.0, b)
        delta = _audit_step(b)
        # a bracket holding more than one crossing (a cluster narrower than
        # the coarse width) may let tracking settle on any of its roots, so
        # only full frames, whose counts move the bracket, search it
        found = _safeguarded_newton(ctr, a, b, target, abs_tol,
                                    start if a < start < b else 0.5 * (a + b),
                                    z if n_hi == target else None)
        audit = None
        if found is not None:
            k_star, final = found
            audit = (_certified_counts(ctr, final, k_star, delta)
                     or _recount(ctr, k_star, delta))
        if audit is None or not (audit.n_below == n and audit.n_above >= target):
            # fallback: pure bisection on the counting function
            while b - a > abs_tol:
                mid = 0.5 * (a + b)
                if ctr.integer(mid) >= target:
                    b = mid
                else:
                    a = mid
            k_star = 0.5 * (a + b)
            audit = _recount(ctr, k_star, delta)
            if not (audit.n_below == n and audit.n_above >= target):
                raise BracketAuditFailed(
                    f"audit around k={k_star}: N={audit.n_below}..{audit.n_above}, "
                    f"expected {n}..>={target}")
        mult = audit.n_above - audit.n_below
        loop_dims = _loop_dims_at(graph, k_star, 1e-6)
        yield LocatedLevel(n=n + 1, k=float(k_star),
                           multiplicity=mult, loop_dims=min(loop_dims, mult))
        n = audit.n_above
        lo = k_star + delta
        frame, phases = audit.frame, audit.phases


def window_edge(graph: MetricGraph, k: float) -> float:
    """A window edge at or near `k` that no eigenvalue lies within
    EDGE_MARGIN audit steps of, so that the counting function is an integer
    there with margin and no audit around a root reaches across the edge.

    Eigenphases move with k at speeds between the shortest and the longest
    edge length, so |psi| >= l_max * margin at every eigenphase keeps every
    eigenvalue at least `margin` away.  Neighbouring windows must share the
    returned edge.
    """
    margin = EDGE_MARGIN * _audit_step(k)
    l_max, l_min = max(graph.lengths), graph.min_length
    step = 2.0 * margin * l_max / l_min
    for j in (0, 1, -1, 2, -2, 3, -3):
        edge = k + j * step
        if edge <= 0.0:
            continue
        psi = _signed(counting(graph, edge).eigenphases)
        if np.min(np.abs(psi)) >= l_max * margin:
            return edge
    raise BracketAuditFailed(f"no window edge clear of the spectrum near k={k}")


def len_done(levels: list[LocatedLevel]) -> int:
    return sum(lv.multiplicity for lv in levels)


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass
class Eigenpair:
    k: float
    n: int
    kappa: np.ndarray
    amplitudes: np.ndarray          # unit norm, phase aligned
    values: np.ndarray              # f at the tail of each directed edge
    derivatives: np.ndarray         # outgoing derivative there, canonical k = 1 scale
    frame: UnitaryFrame             # of U(kappa), with eigenvectors
    residual: float
    flags: "Flags | None" = None


def kernel_cutoff(graph: MetricGraph, k: float | np.ndarray) -> float | np.ndarray:
    """Largest |1 - e^{i theta}| over an eigenphase theta of U(k) that still
    counts as a kernel direction of 1 - U at a located eigenvalue k (or at
    each of an array of them).

    A root located to relative precision LOCATE_TOL leaves a kernel residual
    of order tol * k * L, so the cutoff grows with k.
    """
    return np.maximum(KERNEL_TOL,
                      10.0 * LOCATE_TOL * np.maximum(1.0, k) * graph.total_length)


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the arithmetic np.linalg.norm uses
    for one vector."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _reconstruct(graph: MetricGraph, ks: list[float], ns: list[int]) -> list[Eigenpair]:
    """Eigenpairs at located ks from one stacked frame of U(kappa); NoKernel
    or NonSimple unless the kernel of 1 - U is one-dimensional at every k.

    Each row is computed as it would be alone: the stacked `inv` and `eigh`
    solve each matrix separately, and every later step is elementwise or
    reduces along a row.
    """
    k = np.asarray(ks, dtype=float)
    kappa = k[:, None] * np.asarray(graph.lengths) % TWO_PI
    U = evolution_matrix(graph, kappa)
    frame = unitary_frame(U, vectors=True)
    distance = np.abs(1.0 - np.exp(1j * frame.eigenphases))
    inside = distance < kernel_cutoff(graph, k)[:, None]
    dims = np.count_nonzero(inside, axis=1)
    for i in np.flatnonzero(dims != 1):
        if dims[i] == 0:
            raise NoKernel(f"nearest |1 - e^(i theta)| {np.min(distance[i]):.2e} at k={ks[i]}")
        raise NonSimple(f"kernel dimension {dims[i]} at k={ks[i]}")
    rows = np.arange(len(k))
    a = frame.vectors[rows, :, np.argmax(inside, axis=1)]
    a = a / _norm(a)[:, None]

    phase = np.repeat(np.exp(-1j * kappa), 2, axis=-1)
    rev = a.reshape(len(k), graph.E, 2)[:, :, ::-1].reshape(a.shape)  # (d, d-hat) swapped
    values_dir = a * phase + rev
    derivs_dir = 1j * (a * phase - rev)
    w = np.concatenate([values_dir, derivs_dir], axis=1)
    # the phase factor e^{i phi} with w = e^{i phi} r for a real vector r
    s = np.sum(w * w, axis=1)
    rot = np.conj(np.where(np.abs(s) < 1e-300, 1.0 + 0j, np.exp(0.5j * np.angle(s))))
    a = a * rot[:, None]
    values_dir = values_dir * rot[:, None]
    derivs_dir = derivs_dir * rot[:, None]
    imag_res = np.maximum(np.max(np.abs(values_dir.imag), axis=1),
                          np.max(np.abs(derivs_dir.imag), axis=1))

    values, derivatives = values_dir.real.copy(), derivs_dir.real.copy()
    # canonical sign: the first significant value or derivative, taken
    # vertex by vertex in the order of graph.outgoing, is positive
    order = [d for ds in graph.outgoing for d in ds]
    trace = np.stack([values[:, order], derivatives[:, order]], axis=2).reshape(
        len(k), 2 * len(order))
    significant = np.abs(trace) > 1e-6
    flip = trace[rows, np.argmax(significant, axis=1)] < 0
    flip &= np.any(significant, axis=1)
    a[flip], values[flip], derivatives[flip] = -a[flip], -values[flip], -derivatives[flip]

    residual = np.maximum(_norm(a - (U @ a[:, :, None])[:, :, 0]), imag_res)
    return [Eigenpair(k=float(ks[i]), n=ns[i], kappa=kappa[i], amplitudes=a[i],
                      values=values[i], derivatives=derivatives[i],
                      # copies, so that no kept frame holds the whole stack
                      frame=UnitaryFrame(frame.eigenphases[i].copy(),
                                         frame.vectors[i].copy(),
                                         float(frame.rotation[i])),
                      residual=float(residual[i]))
            for i in rows]


def eigenfunction_at(graph: MetricGraph, k: float, n: int = 0) -> Eigenpair:
    """Reconstruct the (canonical, real) eigenfunction at a located k: the
    batch of one of `eigenpairs`.

    The kernel of 1 - U is spanned by the eigenvectors of one spectral frame
    of U whose eigenphases lie within `kernel_cutoff` of 0 (as
    |1 - e^{i theta}|); the eigenpair keeps that frame, from which
    `magnetic.hessian_alpha` reads the flux Hessian.  The vertex trace is
    the value and the outgoing derivative at the tail of every directed
    edge, indexed by directed edge.

    A kernel of dimension 0 raises NoKernel, and one of dimension 2 or more
    raises NonSimple: multiple levels, at a loop resonance or not, are never
    reconstructed.
    """
    return _reconstruct(graph, [k], [n])[0]


# ---------------------------------------------------------------------------
# classification


@dataclass
class Flags:
    generic: bool      # every vertex value and interior derivative clears its threshold
    borderline: list[str] = field(default_factory=list)


def _band(q: float, eps: float) -> bool:
    """True when q falls within a factor 10 of the threshold."""
    return eps / 10.0 <= q <= eps * 10.0


def classify(graph: MetricGraph, ep: Eigenpair,
             thresholds: Thresholds = Thresholds()) -> Flags:
    borderline: list[str] = []

    interior_dirs = [d for v in graph.topology.interior for d in graph.outgoing[v]]
    min_val = float(np.min(np.abs(ep.values)))
    min_der = float(np.min(np.abs(ep.derivatives[interior_dirs]), initial=np.inf))

    if _band(min_val, thresholds.value):
        borderline.append(f"vertex value {min_val:.2e}")
    if np.isfinite(min_der) and _band(min_der, thresholds.derivative):
        borderline.append(f"vertex derivative {min_der:.2e}")

    mass = np.abs(ep.amplitudes) ** 2
    for i in graph.topology.loops:
        outside = float(np.sum(mass) - mass[2 * i] - mass[2 * i + 1])
        # only ambiguous when the resonance condition is in play as well
        if abs(np.exp(1j * ep.kappa[i]) - 1.0) < 1e-3 and _band(outside, thresholds.support):
            borderline.append(f"loop {i} outside mass {outside:.2e}")

    flags = Flags(generic=min_val > thresholds.value and min_der > thresholds.derivative,
                  borderline=borderline)
    ep.flags = flags
    return flags


# ---------------------------------------------------------------------------
# windowed and parallel localization, and the eigenpair stream


def _pool_windows(graph: MetricGraph, count: int | None, k_max: float | None,
                  workers: int) -> Iterator[LocatedLevel]:
    """(0, k_max] in `workers` windows located on a process pool.  For
    `count`, k_max is past the count-th eigenvalue by the exact Weyl bound
    (`_weyl_edge`)."""
    from concurrent.futures import ProcessPoolExecutor  # only a pool loads it

    if k_max is None:
        k_max = _weyl_edge(graph, count)
    edges = np.linspace(0.0, k_max, workers + 1).tolist()
    edges[1:-1] = [window_edge(graph, e) for e in edges[1:-1]]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # locate_spectrum(graph, count=None, k_max=b, k_min=a) per window
        windows = pool.map(locate_spectrum, repeat(graph), repeat(None),
                           edges[1:], edges[:-1])
        levels = [lv for window in windows for lv in window]
    if count is not None and len_done(levels) < count:
        raise BracketAuditFailed(
            f"{len_done(levels)} eigenvalues in (0, {k_max}], below the Weyl "
            f"bound for {count}")
    yield from levels


def _weyl_edge(graph: MetricGraph, count: int) -> float:
    """A window edge with at least `count` eigenvalues below it.

    With every eigenphase in [0, 2pi), the counting function
    N(k) = Lk/pi + (E + V)/2 - 1 - sum theta / 2pi exceeds
    Lk/pi - (3E - V)/2 - 1, so N > count + 1 at the k where that bound is
    count + 1.  `window_edge` moves the edge by a few audit steps, far less
    than the spare level spacing, and N there is at most count + 2E + 1.
    """
    bound = count + (3 * graph.E - graph.V) / 2.0 + 2.0
    return window_edge(graph, np.pi * bound / graph.total_length)


def _chained_windows(graph: MetricGraph, chunk: int,
                     k_max: float | None) -> Iterator[LocatedLevel]:
    """Windows `chunk` mean level spacings wide, each walked on demand."""
    width = chunk * np.pi / graph.total_length
    top = np.inf if k_max is None else k_max
    k_lo, n = 0.0, 0
    while k_lo < top:
        k_hi = min(window_edge(graph, k_lo + width), top)
        for lv in _walk(graph, k_lo, k_hi, n):
            n = lv.n + lv.multiplicity - 1
            yield lv
        k_lo = k_hi


def _first(levels: Iterator[LocatedLevel], count: int | None) -> Iterator[LocatedLevel]:
    """Whole levels until they hold `count` eigenvalues; no level is asked
    for once they do."""
    done = 0
    while count is None or done < count:
        lv = next(levels, None)
        if lv is None:
            return
        yield lv
        done += lv.multiplicity


def stream_levels(graph: MetricGraph, count: int | None = None,
                  k_max: float | None = None, workers: int = 1,
                  chunk: int | None = None) -> Iterator[LocatedLevel]:
    """Levels in order: whole levels up to the first `count` eigenvalues,
    all in (0, k_max], or, given neither, without end.

    One worker locates each level in-process when it is asked for, in
    windows `chunk` mean level spacings wide (one window without `chunk`);
    more split the range into `workers` windows located on a process pool.
    Window edges are moved clear of the spectrum (`window_edge`), so the
    levels do not depend on the split.
    """
    if count is not None and k_max is not None:
        raise ValueError("specify at most one of count, k_max")
    if workers > 1 and (chunk is not None or (count is None and k_max is None)):
        raise ValueError("a process pool takes count or k_max, and no chunk")
    if workers > 1 and (k_max is None or k_max > 0.0):
        levels = _pool_windows(graph, count, k_max, workers)
    elif chunk is None:
        levels = _walk(graph, k_max=k_max)
    else:
        levels = _chained_windows(graph, chunk, k_max)
    return _first(levels, count)


def batch_levels(graph: MetricGraph) -> int:
    """Levels per reconstruction batch: as many as keep each stacked array
    of the batch near BATCH_ENTRIES complex entries."""
    return max(1, BATCH_ENTRIES // (2 * graph.E) ** 2)


def eigenpairs(graph: MetricGraph, levels: list[LocatedLevel],
               thresholds: Thresholds = Thresholds()) -> list[tuple]:
    """(level, eigenpair, flags, reason) per level, the simple levels off
    every loop resonance reconstructed as one batch (`_reconstruct`) and
    classified; other levels carry None for both (at a resonance the loop
    state is the eigenfunction, so none is reconstructed).  The level's
    `loop_dims`, decided as it is located, is the only loop decision.
    NoKernel or NonSimple at any level is raised for the whole batch.

    `reason` is None for a generic eigenpair, or else one of
      loop_supported      every kernel direction is a loop state
      degenerate_at_loop  a multiple level holding loop states and more
      non_simple          a multiple level away from loop resonances
      borderline          a classification within a factor 10 of a threshold
      non_generic         a vertex value or interior derivative is below its threshold
    """
    simple = [lv for lv in levels if lv.multiplicity == 1 and not lv.loop_dims]
    built = iter(_reconstruct(graph, [lv.k for lv in simple], [lv.n for lv in simple]))
    out = []
    for lv in levels:
        if lv.multiplicity > 1 or lv.loop_dims:
            out.append((lv, None, None,
                        "loop_supported" if lv.loop_dims == lv.multiplicity
                        else "degenerate_at_loop" if lv.loop_dims else "non_simple"))
            continue
        ep = next(built)
        flags = classify(graph, ep, thresholds)
        out.append((lv, ep, flags,
                    "borderline" if flags.borderline
                    else None if flags.generic else "non_generic"))
    return out


def stream_eigenpairs(graph: MetricGraph, count: int | None = None,
                      k_max: float | None = None,
                      thresholds: Thresholds = Thresholds(),
                      workers: int = 1) -> Iterator[tuple]:
    """`eigenpairs` of the levels of `stream_levels` (in one window, or in
    `workers` pool windows), in consecutive batches of `batch_levels(graph)`;
    a batch is located in full before its first item is yielded."""
    levels = stream_levels(graph, count, k_max, workers)
    size = batch_levels(graph)
    while batch := list(islice(levels, size)):
        yield from eigenpairs(graph, batch, thresholds)
