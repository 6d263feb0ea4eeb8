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
k_f + min(2pi - theta) / l_min.  Every level runs one Newton iteration on
the crossing eigenphase (slope <z, L z> for its eigenvector z) from the
earliest first-order prediction k_f + (2pi - theta_m) / <z_m, L z_m> over
the eigenphases; no count inside the bracket decides how many crossings it
holds.  The first steps take no frame: inverse iteration on U(k) - 1, one
LU solve each, follows the eigenvector x of the eigenphase nearest 0 and
reads that eigenphase as arg(x* U x).  Full frames take over near the root,
where a safeguarded iteration on the eigenphase nearest 0 converges; the
count from each frame tightens the bracket, and a step leaving the bracket
is replaced by bisection.  Tracking only decides where the first frame is
taken, so a root usually costs one frame.

Every root Newton returns is audited by the integer counts at k* - delta
and k* + delta, which decide whether it is the next level.  The final Newton
frame gives them exactly when each of its eigenphases is either too far from
0 to reach it within delta or near enough to cross it there, with a rounding
bound that grows with k; otherwise they are re-counted afresh.  When the
audit shows that Newton settled on a later root of a close pair, Newton runs
again below it, on [a, k* - delta]; only when that fails too, or Newton
settled on no root, is the bracket bisected down to the tolerance.  The level
holds a loop state of every loop e with k l_e on a multiple of 2pi somewhere
in the audited interval.  The frame that audited a root, with the eigenphases
that crossed there set to 0, brackets the next one.

A walk (`Walk`) locates levels in lanes.  A request is the levels holding
the next m eigenvalues; one for all levels up to k_max asks for those up to
the exact count at k_max.  One splitter (`_split`) places the edges of the
lanes, and of the windows of a process pool: where Weyl's mean count reaches
n + i m / L, so that each holds about m / L levels, moved clear of the
spectrum.  A lane holds at least LANE_LEVELS levels, or SHORT_LANE_LEVELS in a
sweep of fewer than LANES eigenvalues, such as the shrinking trailing
requests of a statistics run, which would otherwise walk about one lockstep
round per level.  Each lane edge costs a frame: below LANES eigenvalues
short lanes are faster on every built-in graph, but above it they are
slower where U is of order 30 (`k6`, `chain8`).  A request wider than
LANES lanes of LANE_SPACINGS mean level spacings is walked in several such
sweeps, each yielded as it is done.  One stacked frame at the edges gives each lane its start frame and the exact
count at its upper edge, where it ends; an edge whose count reaches the
count asked for ends no lane, so no lane but the last, which ends by count,
passes it.  All lanes then advance in lockstep: each step brackets, tracks,
iterates Newton on and certifies the next level of every lane still open
with one stacked evolution matrix, solve or frame, and numpy decomposes each
matrix of a stack alone, so a lane finds what it would find walked alone.  A
singular solve, an undecided certificate, a close-pair retry and the
bisection fallback are handled lane by lane.  A count that disagrees with an
edge's count raises BracketAuditFailed.  The walk carries on from the last
lane of a request, and tallies the sweeps, lockstep rounds, frames (by stack
depth), matrices solved again with the pole moved, solves, lanes, spare
edges, re-counts, retries, fallbacks and kernel frames it takes
(`WalkTally`).

An eigenfunction is read from a frame at its level: the eigenvector of the
eigenphase at 0 spans the kernel of 1 - U(k).  Every simple level off loop
states keeps a frame's eigenphases and that eigenvector
(`LocatedLevel.phases`, `.kernel`): a level its final Newton frame
certifies keeps that frame, which lies within a quarter of the tolerance of
the root, and a level settled afresh (a re-count, a close-pair retry or a
bisection) takes one more frame, with eigenvectors, at the located k, one
stack over such levels of a step (`WalkTally.kernel_frames`).  A walk asked
for couplings (`couplings=True`, which magnetic indices need) on a graph
with cycles also keeps the vector's couplings to the frame's eigenvectors
through each edge (`edge_couplings`, E x 2E complex numbers: 288 B on
`dumbbell`, 7.2 KB on `k6`), from which `magnetic` takes the flux Hessian.
Located levels are reconstructed in batches bounded by memory (about
`secular.BATCH_ENTRIES` complex entries per stacked array) from what they
kept, with no decomposition: the kernel check against `kernel_cutoff`, phase
alignment, vertex trace, canonical sign, residual at the located k and
classification are array operations over the batch, each row computed as it
would be alone.  The eigenpair keeps its vertex trace as two arrays indexed
by directed edge.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BracketAuditFailed, NoKernel, NonSimple
from .graphs import MetricGraph
from .secular import KERNEL_TOL, TWO_PI, evolution_matrix, stack_size

LOCATE_TOL = 1e-12   # absolute tolerance factor: tol * max(1, k)
INTEGER_SLACK = 1e-6  # counting values this close to an integer are exact counts

POLE_ROTATION = 1.0  # phi: the Cayley pole sits at the eigenphase phi + pi
POLE_LIMIT = 1e4     # largest |tan((theta - phi) / 2)| accepted without re-solving
NEWTON_ITERATIONS = 60
TRACK_ITERATIONS = 8  # inverse-iteration steps before the first Newton frame
TRACK_HANDOFF = 1e-7  # a tracking step below this times max(1, k) ends tracking
PSI_EXACT = 1e-10    # nearest eigenphase farther from 0 than this: count is exact
EDGE_MARGIN = 10.0   # window edges keep this many audit steps from eigenvalues
LANES = 32           # most lanes walked in lockstep (at most `stack_size` of a graph)
LANE_LEVELS = 8      # fewest levels in a lane of a sweep of LANES eigenvalues or more
SHORT_LANE_LEVELS = 2  # fewest levels in a lane of a smaller sweep
LANE_SPACINGS = 32   # widest lane, in mean level spacings
# bound on the eigensolver's rounding of an eigenphase: 500 times the worst
# error against np.linalg.eigvals over 15000 frames of five graphs (2e-12)
PHASE_ROUNDING = 1e-9
# a vertex value or derivative below this leaves its sign, and so the closed
# form counts, undecided
TRACE_FLOOR = 1e-6


@dataclass(frozen=True)
class Thresholds:
    value: float = TRACE_FLOOR
    derivative: float = TRACE_FLOOR
    support: float = 1e-8

    def __post_init__(self):
        """ValueError unless every threshold is a finite positive number,
        with `value` and `derivative` at or above TRACE_FLOOR: an eigenpair
        that passes them then passes the counts' floor guard."""
        for f in fields(self):
            key, x = f.name, getattr(self, f.name)
            if isinstance(x, bool) or not isinstance(x, (int, float)) \
                    or not 0 < x < np.inf:
                raise ValueError(f"threshold '{key}' must be a finite positive number, got {x!r}")
            if key != "support" and x < TRACE_FLOOR:
                raise ValueError(f"threshold '{key}' {x!r} is below the trace floor "
                                 f"{TRACE_FLOOR} that the counts need")

    @staticmethod
    def from_dict(d: dict | None) -> "Thresholds":
        """Thresholds from a JSON object of overrides; ValueError unless
        every key is a field, and for any value the constructor rejects."""
        if d is None:
            return Thresholds()
        if not isinstance(d, dict):
            raise ValueError(f"thresholds must be a JSON object, got {d!r}")
        names = [f.name for f in fields(Thresholds)]
        for key in d:
            if key not in names:
                raise ValueError(f"unknown threshold '{key}' (accepted: {', '.join(names)})")
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
    k: float | np.ndarray
    eigenphases: np.ndarray         # of U(k), in [0, 2pi)
    N: float | np.ndarray
    vectors: np.ndarray | None = None   # eigenvectors, when asked for
    # matrices that `unitary_frame` solved again with the pole moved; a tally
    # of the call that made the frame, which `take` does not carry
    resolves: int = 0

    def take(self, rows) -> "CountingFrame":
        """The frames of a stack at `rows` (one frame for an integer)."""
        return CountingFrame(self.k[rows], self.eigenphases[rows], self.N[rows],
                             None if self.vectors is None else self.vectors[rows])

    def put(self, rows, other: "CountingFrame"):
        """Set the frames of a stack at `rows` to those of `other`."""
        self.k[rows], self.eigenphases[rows], self.N[rows] = other.k, other.eigenphases, other.N
        self.vectors[rows] = other.vectors


def counting(graph: MetricGraph, k: float | np.ndarray,
             vectors: bool = False) -> CountingFrame:
    """Number of eigenvalues in (0, k] (exact integer for generic k), with
    the eigenphases of U(k) and, if `vectors`, its eigenvectors; for an
    array of k, a stack of frames, one decomposition per matrix."""
    k_arr = np.asarray(k, dtype=float)
    frame = unitary_frame(
        evolution_matrix(graph, k_arr[..., None] * np.asarray(graph.lengths) % TWO_PI),
        vectors)
    theta = frame.eigenphases
    weyl = graph.total_length * k_arr / np.pi
    N = weyl + (graph.E + graph.V) / 2.0 - 1.0 - np.sum(theta, axis=-1) / TWO_PI
    return CountingFrame(k=k if k_arr.ndim == 0 else k_arr, eigenphases=theta,
                         N=float(N) if k_arr.ndim == 0 else N, vectors=frame.vectors,
                         resolves=int(np.count_nonzero(frame.rotation != POLE_ROTATION)))


def _empty_frames(count: int, order: int) -> CountingFrame:
    return CountingFrame(np.zeros(count), np.zeros((count, order)), np.zeros(count),
                         np.zeros((count, order, order), dtype=complex))


def _exact_counts(frame: CountingFrame) -> np.ndarray:
    """The integer counts of a stack of frames; BracketAuditFailed unless
    every count is an integer."""
    off = np.abs(frame.N - np.round(frame.N)) > INTEGER_SLACK
    if np.any(off):
        i = int(np.argmax(off))
        raise BracketAuditFailed(
            f"counting value {frame.N[i]} at k={frame.k[i]} is not an integer; "
            "evaluation too close to an eigenvalue")
    return np.round(frame.N).astype(int)


@dataclass
class LocatedLevel:
    n: int                # spectral index of the first eigenvalue at this k
    k: float
    multiplicity: int
    loop_dims: int        # kernel dimensions carried by loop factors
    # a simple level off loop states keeps the eigenphases of a frame at
    # its level (its final Newton frame, or one taken at k if it was
    # settled afresh), the eigenvector of the one nearest 0, from which it
    # is reconstructed, and, when the walk was asked for them on a graph
    # with cycles, that vector's `edge_couplings`; None for a multiple
    # level or one at a loop state
    phases: np.ndarray | None = field(default=None, compare=False, repr=False)
    kernel: np.ndarray | None = field(default=None, compare=False, repr=False)
    couplings: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class WalkTally:
    """What a walk did, as integer tallies."""
    levels: int = 0
    # spectral frames of U taken, by stack depth: {depth: stacked calls}
    frames: Counter = field(default_factory=Counter)
    solves: int = 0       # tracking solves, one matrix each
    lanes: int = 0
    requests: int = 0     # sweeps walked (a request wider than one is several)
    rounds: int = 0       # lockstep steps over the open lanes of a sweep
    recounts: int = 0     # audits counted afresh at k* - delta and k* + delta
    retries: int = 0      # Newton run again below the upper root of a close pair
    fallbacks: int = 0    # levels bisected on the count
    resolves: int = 0     # matrices of a frame solved again with the pole moved
    spare_edges: int = 0  # lane edge frames at or past a request's count
    kernel_frames: int = 0  # simple levels settled afresh, given a frame at k

    def matrices(self) -> int:
        """Matrices decomposed in all frames, re-solves included."""
        return sum(depth * calls for depth, calls in self.frames.items()) + self.resolves

    def to_json(self) -> dict:
        return {"levels": self.levels, "frames_by_depth":
                {str(d): c for d, c in sorted(self.frames.items())},
                "matrices": self.matrices(), "tracking_solves": self.solves,
                "lanes": self.lanes, "requests": self.requests, "rounds": self.rounds,
                "recounts": self.recounts,
                "retries": self.retries, "fallbacks": self.fallbacks,
                "resolves": self.resolves, "spare_edges": self.spare_edges,
                "kernel_frames": self.kernel_frames}


class _Counter:
    """Counting-function evaluations with integer rounding and tallies."""

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self.lengths = np.asarray(graph.lengths)
        self.dir_lengths = np.repeat(self.lengths, 2)
        self.l_min, self.l_max = graph.min_length, max(graph.lengths)
        self.tally = WalkTally()

    def frame(self, k: float | np.ndarray, vectors: bool = False) -> CountingFrame:
        self.tally.frames[np.size(k)] += 1
        frame = counting(self.graph, k, vectors)
        self.tally.resolves += frame.resolves
        return frame

    def exact(self, k: float, vectors: bool = False) -> tuple[int, CountingFrame]:
        """The integer count at k, with its frame."""
        frame = self.frame(np.array([k]), vectors)
        return int(_exact_counts(frame)[0]), frame.take(0)

    def integer(self, k: float) -> int:
        return self.exact(k)[0]


def edge_couplings(Z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b[..., e, m] = z_m* A_e a for every edge e, with A_e = diag(+1 on 2e,
    -1 on 2e + 1): how a flux on edge e couples the vector a to each
    eigenvector z_m (the columns of Z), for one frame or a stack.  With the
    eigenphases these are all the flux Hessian of a's eigenphase needs."""
    product = Z.conj() * a[..., :, None]
    return product[..., 0::2, :] - product[..., 1::2, :]


def _kernel_vectors(frame: CountingFrame) -> np.ndarray:
    """The eigenvector of the eigenphase nearest 0 of each frame of a stack."""
    theta = frame.eigenphases
    return frame.vectors[np.arange(len(theta)), :, np.argmin(np.abs(_signed(theta)), axis=-1)]


def _loop_dims(graph: MetricGraph, k: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Loops with a loop state in each audited interval [k - delta, k + delta]:
    those e with a multiple of 2pi in [(k - delta) l_e, (k + delta) l_e]."""
    lengths = np.asarray(graph.lengths)[list(graph.topology.loops)]
    k, delta = k[:, None], delta[:, None]
    return np.count_nonzero(
        TWO_PI * np.floor((k + delta) * lengths / TWO_PI) >= (k - delta) * lengths, axis=-1)


def _signed(theta: np.ndarray) -> np.ndarray:
    """Eigenphases in [-pi, pi)."""
    return (theta + np.pi) % TWO_PI - np.pi


def _audit_step(k):
    """The delta of the audit at k_star +- delta around a root near k."""
    return np.maximum(1e-8, 1e-8 * k)


def _phase_rounding(graph: MetricGraph, k):
    """Bound on the rounding error of a frame's eigenphases at k.

    The eigensolver's share stays below PHASE_ROUNDING; kappa = l k mod 2pi
    adds about 1e-16 l k, which the kernel cutoff's growth 10 LOCATE_TOL k L
    covers many times over.
    """
    return np.maximum(PHASE_ROUNDING,
                      10.0 * LOCATE_TOL * np.maximum(1.0, k) * graph.total_length)


class _Audit(NamedTuple):
    decided: bool | np.ndarray       # whether the frame decides the counts
    n_below: int | np.ndarray        # counts at k_star - delta and k_star + delta
    n_above: int | np.ndarray
    frame: CountingFrame             # with vectors; it brackets the next level
    phases: np.ndarray               # its eigenphases, those crossing at k_star set to 0

    def row(self, i: int) -> "_Audit":
        return _Audit(bool(self.decided[i]), int(self.n_below[i]), int(self.n_above[i]),
                      self.frame.take(i), self.phases[i])

    def put(self, i: int, other: "_Audit"):
        self.decided[i], self.n_below[i], self.n_above[i] = (
            other.decided, other.n_below, other.n_above)
        self.frame.put(i, other.frame)
        self.phases[i] = other.phases


def _certified_counts(ctr: _Counter, frame: CountingFrame, k_star: np.ndarray,
                      delta: np.ndarray) -> _Audit:
    """The audits read off a stack of final Newton frames at roots k_star,
    one per frame; `decided` is False where a frame does not decide them.

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
    N = np.round(frame.N)
    d = np.abs(frame.k - k_star)
    rho = _phase_rounding(ctr.graph, frame.k)
    theta = frame.eigenphases
    psi = np.abs(_signed(theta))
    crossing = psi < (ctr.l_min * (delta - d) - rho)[:, None]
    undecided = np.any(~crossing & (psi <= (ctr.l_max * (delta + d) + rho)[:, None]), axis=-1)
    decided = (np.abs(frame.N - N) <= INTEGER_SLACK) & ~undecided
    n_below = N.astype(int) - np.count_nonzero(crossing & (theta < np.pi), axis=-1)
    return _Audit(decided, n_below, n_below + np.count_nonzero(crossing, axis=-1),
                  frame, np.where(crossing, 0.0, theta))


def _recount(ctr: _Counter, k_star: float, delta: float) -> _Audit:
    """The audit of one root by fresh counts at k_star - delta and
    k_star + delta."""
    ctr.tally.recounts += 1
    n_below = ctr.integer(k_star - delta)
    n_above, frame = ctr.exact(k_star + delta, vectors=True)
    return _Audit(True, n_below, n_above, frame, frame.eigenphases)


def _phase_bracket(ctr: _Counter, frame: CountingFrame, phases: np.ndarray,
                   lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, start, z) per frame of a stack: a bracket [a, b] of the next
    eigenvalue past `lo` from a frame at k_f <= lo whose count holds at lo,
    a Newton start, and the eigenvector z of the eigenphase predicted to
    cross first.

    Eigenphase m reaches 2pi after turning r_m = 2pi - theta_m further, at a
    speed in [l_min, l_max]: no eigenvalue lies before k_f + min r / l_max,
    and one lies at or before k_f + min r / l_min.  Both bounds are padded
    by the rounding bound and two audit steps, since a loop state turns at
    exactly its loop length and so can sit on one.  The start is the
    earliest first-order prediction k_f + r_m / <z_m, L z_m> over all
    eigenphases, which falls inside the bound.  The bracket may hold more
    than one crossing; the audit of the root Newton finds decides whether
    it is the next level.
    """
    k_f = frame.k
    r = TWO_PI - phases
    rho = _phase_rounding(ctr.graph, k_f)
    r1 = np.min(r, axis=-1)
    pad = 2.0 * _audit_step(k_f + r1 / ctr.l_min)
    a = np.maximum(lo, k_f + (r1 - rho) / ctr.l_max - pad)
    b = k_f + (r1 + rho) / ctr.l_min + pad
    predicted = r / (ctr.dir_lengths @ (np.abs(frame.vectors) ** 2))
    m = np.argmin(predicted, axis=-1)
    rows = np.arange(len(k_f))
    return a, b, k_f + predicted[rows, m], frame.vectors[rows, :, m]


def _solve(ctr: _Counter, M: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, solved): M x = z for each matrix of a stack.  A singular matrix
    fails the whole stacked solve, so the stack is then solved matrix by
    matrix, and `solved` is False where one fails alone."""
    ctr.tally.solves += len(M)
    try:
        return np.linalg.solve(M, z[..., None])[..., 0], np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ctr.tally.solves += len(M)
    x, solved = np.zeros_like(z), np.zeros(len(M), dtype=bool)
    for i in range(len(M)):
        try:
            x[i] = np.linalg.solve(M[i], z[i])
            solved[i] = True
        except np.linalg.LinAlgError:
            pass
    return x, solved


def _track(ctr: _Counter, a: np.ndarray, b: np.ndarray, k: np.ndarray,
           z: np.ndarray) -> np.ndarray:
    """Where the first full frame of each Newton iteration of a stack in
    [a, b] is taken: the eigenphase of U(k) nearest 0, followed from k by
    inverse iteration.

    Each step solves (U(k) - 1) x = z, one LU solve in place of a full
    frame, and takes x / |x| as the new z; its eigenphase psi = arg(x* U x)
    turns at speed <x, L x>, so k moves by -psi / <x, L x>.  Tracking stops,
    for each iteration alone, once a step would leave [a, b], the solve
    fails, or a step falls below TRACK_HANDOFF * max(1, k).
    """
    k, z = k.copy(), z.copy()
    live = np.arange(len(k))
    identity = np.eye(z.shape[-1])
    for _ in range(TRACK_ITERATIONS):
        if not live.size:
            break
        U = evolution_matrix(ctr.graph, k[live, None] * ctr.lengths % TWO_PI)
        x, solved = _solve(ctr, U - identity, z[live])
        live, U, x = live[solved], U[solved], x[solved]
        x = x / _norm(x)[:, None]
        step = (-np.angle(np.vecdot(x, (U @ x[..., None])[..., 0]))
                / ((np.abs(x) ** 2) @ ctr.dir_lengths))
        k_next = k[live] + step
        inside = (a[live] <= k_next) & (k_next <= b[live])
        live, step, k_next = live[inside], step[inside], k_next[inside]
        k[live], z[live] = k_next, x[inside]
        live = live[np.abs(step) >= TRACK_HANDOFF * np.maximum(1.0, k_next)]
    return k


def _safeguarded_newton(ctr: _Counter, a: np.ndarray, b: np.ndarray,
                        target: np.ndarray, tol: np.ndarray, k: np.ndarray,
                        z: np.ndarray) -> tuple[np.ndarray, np.ndarray, CountingFrame]:
    """Roots of the eigenphase nearest 0 inside brackets [a, b], one Newton
    iteration per row of a stack, where the count is below `target` at a
    and, by the phase-velocity bound, reaches it at b, from the start k and
    the eigenvector z of the eigenphase predicted to cross there.

    `_track` first moves each start close to its root without a frame.  From
    there, Newton steps -psi / <z, L z> that stay inside the bracket are
    taken, the others become bisections; a frame whose nearest eigenphase is
    clear of 0 is an exact count and moves one end of the bracket.  Each
    step takes one stacked frame of the iterations not yet settled.  When a
    bracket holds several crossings the root need not be the first; the
    caller's audit tells.  Returns (found, roots, frames): per row whether
    the iteration settled, its root and its last frame, taken within tol of
    the root, whose eigenphases and vectors audit the root and bracket the
    next one.
    """
    a, b = a.copy(), b.copy()
    k = _track(ctr, a, b, k, z)
    found, roots = np.zeros(len(k), dtype=bool), np.zeros(len(k))
    final = _empty_frames(len(k), z.shape[-1])
    live = np.arange(len(k))
    for _ in range(NEWTON_ITERATIONS):
        if not live.size:
            break
        frame = ctr.frame(k[live], vectors=True)
        psi = _signed(frame.eigenphases)
        rows = np.arange(len(live))
        j = np.argmin(np.abs(psi), axis=-1)
        psi_j = psi[rows, j]
        N = np.round(frame.N)
        exact = (np.abs(psi_j) > PSI_EXACT) & (np.abs(frame.N - N) <= INTEGER_SLACK)
        above = N >= target[live]
        b[live[exact & above]] = k[live[exact & above]]
        a[live[exact & ~above]] = k[live[exact & ~above]]
        slope = (np.abs(frame.vectors[rows, :, j]) ** 2) @ ctr.dir_lengths
        k_next = k[live] - psi_j / slope
        outside = ~((a[live] <= k_next) & (k_next <= b[live]))
        k_next[outside] = 0.5 * (a[live] + b[live])[outside]
        done = ((np.abs(k_next - k[live]) < 0.25 * tol[live])
                | (b[live] - a[live] < tol[live]))
        found[live[done]], roots[live[done]] = True, k_next[done]
        final.put(live[done], frame.take(done))
        k[live] = k_next
        live = live[~done]
    return found, roots, final


def _settle(ctr: _Counter, n: int, a: float, b: float, start: float,
            z: np.ndarray, tol: float, delta: float,
            root: tuple[float, _Audit] | None) -> tuple[float, _Audit]:
    """The next level past count n in [a, b] with its audit, where Newton's
    root (k_star and its audit from the final frame) is not certified to be
    it, or there is none.

    An undecided certificate is counted afresh.  When the counts show that
    Newton found a later root of a close pair (the count at k_star - delta
    already reaches n + 1), Newton runs again below it, on
    [a, k_star - delta], where the count at the upper end is known.  Only
    when that fails too is the bracket bisected on the count down to tol.
    """
    target = n + 1

    def passed(audit):
        return audit.n_below == n and audit.n_above >= target

    if root is not None:
        k_star, audit = root
        if not audit.decided:
            audit = _recount(ctr, k_star, delta)
        if passed(audit):
            return k_star, audit
        if audit.n_below >= target:
            ctr.tally.retries += 1
            b = k_star - delta
            found, roots, final = _safeguarded_newton(
                ctr, np.array([a]), np.array([b]), np.array([target]), np.array([tol]),
                np.array([start if a < start < b else 0.5 * (a + b)]), z[None])
            if found[0]:
                k_star = float(roots[0])
                audit = _certified_counts(ctr, final, roots, np.array([delta])).row(0)
                if not audit.decided:
                    audit = _recount(ctr, k_star, delta)
                if passed(audit):
                    return k_star, audit
    ctr.tally.fallbacks += 1
    while b - a > tol:
        mid = 0.5 * (a + b)
        if ctr.integer(mid) >= target:
            b = mid
        else:
            a = mid
    k_star = 0.5 * (a + b)
    audit = _recount(ctr, k_star, delta)
    if not passed(audit):
        raise BracketAuditFailed(
            f"audit around k={k_star}: N={audit.n_below}..{audit.n_above}, "
            f"expected {n}..>={target}")
    return k_star, audit


@dataclass
class _Lanes:
    """The lanes of a sweep, a row per lane.  A lane's frame and phases
    bracket its next level past `lo`, where its count is `n`; it is done
    once `n` reaches `end`: the exact count at its upper edge `top`, or,
    for the last lane, which is open (top = inf), the count the sweep asks
    for."""
    frame: CountingFrame
    phases: np.ndarray
    n: np.ndarray
    lo: np.ndarray
    end: np.ndarray
    top: np.ndarray


def _step(ctr: _Counter, lanes: _Lanes, idx: np.ndarray,
          couplings: bool) -> list[LocatedLevel]:
    """Locate the next level of each lane in `idx` in lockstep: one stacked
    bracket, tracked Newton and certificate over the lanes, with the rare
    undecided or failed audits settled lane by lane.  Moves the lanes past
    their levels and returns those, one per lane.  A simple level off loop
    states keeps the eigenphases and kernel vector of its final Newton
    frame, or, settled afresh, of one stacked frame at the located k over
    such levels, and with `couplings` the vector's couplings (one stacked
    product over the lanes)."""
    ctr.tally.rounds += 1
    frame, n = lanes.frame.take(idx), lanes.n[idx]
    a, b, start, z = _phase_bracket(ctr, frame, lanes.phases[idx], lanes.lo[idx])
    # the count at a lane's top edge reaches n + 1
    b = np.minimum(b, lanes.top[idx])
    tol = LOCATE_TOL * np.maximum(1.0, b)
    delta = _audit_step(b)
    start = np.where((a < start) & (start < b), start, 0.5 * (a + b))
    found, k_star, final = _safeguarded_newton(ctr, a, b, n + 1, tol, start, z)
    audit = _certified_counts(ctr, final, k_star, delta)
    passed = found & audit.decided & (audit.n_below == n) & (audit.n_above > n)
    for i in np.flatnonzero(~passed):
        k_star[i], settled = _settle(
            ctr, int(n[i]), float(a[i]), float(b[i]), float(start[i]), z[i],
            float(tol[i]), float(delta[i]),
            (float(k_star[i]), audit.row(i)) if found[i] else None)
        audit.put(i, settled)
    mult = audit.n_above - n
    loops = np.minimum(_loop_dims(ctr.graph, k_star, delta), mult)
    lanes.n[idx], lanes.lo[idx] = audit.n_above, k_star + delta
    lanes.frame.put(idx, audit.frame)
    lanes.phases[idx] = audit.phases
    kept = (mult == 1) & (loops == 0)
    # `_settle` left its audit frames, now copied to the lanes, in its rows
    # of `final`; a simple level there takes a frame at its k instead
    fresh = np.flatnonzero(kept & ~passed)
    if fresh.size:
        ctr.tally.kernel_frames += fresh.size
        final.put(fresh, ctr.frame(k_star[fresh], vectors=True))
    theta, vectors = final.eigenphases, _kernel_vectors(final)
    b_kept = edge_couplings(final.vectors, vectors) if couplings else repeat(None)
    ctr.tally.levels += len(idx)
    return [LocatedLevel(n_i + 1, k_i, m_i, l_i, *((t, v, b) if keep else ()))
            for n_i, k_i, m_i, l_i, keep, t, v, b in zip(
                n.tolist(), k_star.tolist(), mult.tolist(), loops.tolist(), kept.tolist(),
                theta, vectors, b_kept)]


def _lane_edges(ctr: _Counter, ks) -> tuple[np.ndarray, CountingFrame, np.ndarray]:
    """Lane edges at or near each of `ks` that no eigenvalue lies within
    EDGE_MARGIN audit steps of, so that the counting function is an integer
    there with margin and no audit around a root reaches across an edge.
    Returns the edges, their frames, with vectors, and whether each edge
    was found.

    Eigenphases move with k at speeds between the shortest and the longest
    edge length, so |psi| >= l_max * margin at every eigenphase keeps every
    eigenvalue at least `margin` away.  Candidates are tried at up to three
    steps either side, and each round of candidates is one stacked frame.
    """
    ks = np.asarray(ks, dtype=float)
    margin = EDGE_MARGIN * _audit_step(ks)
    step = 2.0 * margin * ctr.l_max / ctr.l_min
    edges, frames = ks.copy(), _empty_frames(len(ks), 2 * ctr.graph.E)
    todo = np.arange(len(ks))
    for j in (0, 1, -1, 2, -2, 3, -3):
        if not todo.size:
            break
        tried = todo[ks[todo] + j * step[todo] > 0.0]
        if not tried.size:
            continue
        candidate = ks[tried] + j * step[tried]
        frame = ctr.frame(candidate, vectors=True)
        clear = (np.min(np.abs(_signed(frame.eigenphases)), axis=-1)
                 >= ctr.l_max * margin[tried])
        edges[tried[clear]] = candidate[clear]
        frames.put(tried[clear], frame.take(clear))
        todo = np.setdiff1d(todo, tried[clear])
    found = np.ones(len(ks), dtype=bool)
    found[todo] = False
    return edges, frames, found


def _split(ctr: _Counter, lo: float, n: int, m: int,
           parts: int) -> tuple[np.ndarray, CountingFrame, np.ndarray]:
    """Edges that split the next m eigenvalues past count n, from lo, into
    at most `parts` spectral windows, with their frames and exact counts.

    The edges sit where Weyl's mean count Lk/pi + (V - E)/2 - 1 reaches
    n + i m / parts: N(k) exceeds it by E - sum theta / 2pi, which lies in
    (-E, E] and averages 0 over the torus (Barra-Gaspard), so the windows
    hold about m / parts eigenvalues each.  `_lane_edges` moves them clear
    of the spectrum in one stacked frame.  An edge it could move below lo
    (three steps at most) or could not clear is dropped, joining its two
    windows; so is a spare edge, whose count reaches n + m, so that the
    window below the first of them is the last and ends by count.
    """
    g = ctr.graph
    mean = n + m * np.arange(1, parts) / parts - (g.V - g.E) / 2.0 + 1.0
    ks = np.pi * mean / g.total_length
    reach = 6.0 * EDGE_MARGIN * _audit_step(ks) * ctr.l_max / ctr.l_min
    edges, frames, found = _lane_edges(ctr, ks[ks - reach > lo])
    edges, frames = edges[found], frames.take(found)
    counts = _exact_counts(frames)
    kept = counts < n + m
    ctr.tally.spare_edges += int(np.count_nonzero(~kept))
    return edges[kept], frames.take(kept), counts[kept]


def _concat(frames: Sequence[CountingFrame]) -> CountingFrame:
    return CountingFrame(*(np.concatenate([getattr(f, name) for f in frames])
                           for name in ("k", "eigenphases", "N", "vectors")))


class Walk:
    """The spectrum walked upward from k_min, one request at a time.  Each
    request, a count of eigenvalues (`take`; `until` counts them at k_max),
    is split into lanes: spectral windows between `_split`'s edges, walked
    in lockstep (`_step`).  The walk carries on from where the last lane of
    a request stops.

    The walk reads its start count from its frame at k_min, with which it
    brackets its first level.  With `couplings` the levels keep their
    kernel vector's `edge_couplings` where they keep a kernel, on a graph
    with cycles (no flux acts on a tree).  A request wider than LANES lanes
    of LANE_SPACINGS mean level spacings is walked in several sweeps, each
    located in full before its first level is yielded.  `tally` counts what
    the walk did.
    """

    def __init__(self, graph: MetricGraph, k_min: float = 0.0, couplings: bool = False):
        self.graph = graph
        self.couplings = couplings and graph.topology.betti > 0
        self.ctr = _Counter(graph)
        self.tally = self.ctr.tally
        self.lo = 1e-6 * np.pi / graph.total_length if k_min <= 0.0 else k_min
        self.frame = self.ctr.frame(np.array([self.lo]), vectors=True)
        self.n = int(_exact_counts(self.frame)[0])
        if k_min <= 0.0 and self.n != 0:
            raise BracketAuditFailed(f"counting at k->0+ gives {self.n}, not 0")
        self.phases = self.frame.eigenphases

    def _lane_count(self, levels: float) -> int:
        """Lanes for a sweep of about `levels` levels: at most LANES (and
        `stack_size`), none below LANE_LEVELS levels, or SHORT_LANE_LEVELS
        in a sweep of fewer than LANES, whose lockstep rounds would
        otherwise be about one per level."""
        shortest = SHORT_LANE_LEVELS if levels < LANES else LANE_LEVELS
        return max(1, min(self._most_lanes(), int(levels // shortest)))

    def _most_lanes(self) -> int:
        return min(LANES, stack_size(self.graph))

    def take(self, count: int) -> Iterator[LocatedLevel]:
        """The next whole levels until they hold `count` eigenvalues; no
        level is located once they do.  Each sweep of m eigenvalues is
        split into lanes at `_split`'s edges: every lane but the last ends
        at the exact count at its upper edge, and the last ends when its
        levels reach the sweep's count."""
        goal = self.n + count
        while self.n < goal:
            yield from self._sweep(min(goal - self.n, self._most_lanes() * LANE_SPACINGS))

    def until(self, k_max: float) -> Iterator[LocatedLevel]:
        """The levels up to k_max: `take` of the eigenvalues up to the exact
        count at k_max."""
        yield from self.take(self._count_to(k_max))

    def _count_to(self, k_max: float) -> int:
        """The eigenvalues past the walk's count up to k_max, from the exact
        count there (none at or below the walk's start)."""
        return self.ctr.exact(k_max)[0] - self.n if k_max > self.lo else 0

    def _sweep(self, m: int) -> list[LocatedLevel]:
        """The levels holding the next m eigenvalues, from the walk's state:
        lanes split at `_split`'s edges, whose frames, one stack, give each
        lane its start and the exact count at its upper edge, where the
        lane below ends.  The last lane is open and ends by count.  Lanes
        come in order, so the levels do too.  The walk carries on from the
        last lane's last audit frame."""
        goal = self.n + m
        edges, frames, counts = _split(self.ctr, self.lo, self.n, m, self._lane_count(m))
        lanes = _Lanes(
            frame=_concat([self.frame, frames]),
            phases=np.concatenate([self.phases, frames.eigenphases]),
            n=np.concatenate([[self.n], counts]),
            lo=np.concatenate([[self.lo], edges]),
            end=np.append(counts, goal),
            top=np.append(edges, np.inf))
        self.tally.lanes += len(lanes.n)
        self.tally.requests += 1
        out = [[] for _ in lanes.n]
        while True:
            # no level passes a lane's upper edge
            passed = lanes.n[:-1] > lanes.end[:-1]
            if np.any(passed):
                i = int(np.argmax(passed))
                raise BracketAuditFailed(
                    f"count {lanes.n[i]} passes the count {lanes.end[i]} at the "
                    f"lane edge k={lanes.top[i]}")
            idx = np.flatnonzero(lanes.n < lanes.end)
            if not idx.size:
                break
            for i, lv in zip(idx, _step(self.ctr, lanes, idx, self.couplings)):
                out[i].append(lv)
        self.frame, self.phases = lanes.frame.take([-1]), lanes.phases[-1:]
        self.n, self.lo = int(lanes.n[-1]), float(lanes.lo[-1])
        return [lv for lane in out for lv in lane]


def locate_spectrum(graph: MetricGraph, count: int | None = None,
                    k_max: float | None = None, k_min: float = 0.0,
                    couplings: bool = False) -> list[LocatedLevel]:
    """Locate eigenvalues, either the first `count` of them or all in
    (k_min, k_max].  Indexing starts at n = 1 for the first positive
    eigenvalue (n = 0, the constant eigenfunction, is never emitted).
    `couplings` is the `Walk`'s.
    """
    if (count is None) == (k_max is None):
        raise ValueError("specify exactly one of count, k_max")
    walk = Walk(graph, k_min, couplings)
    return list(walk.take(count) if count is not None else walk.until(k_max))


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
    residual: float
    # the eigenphases of the frame the kernel was read from and, when asked
    # for on a graph with cycles, the kernel vector's `edge_couplings` in
    # that frame: the flux Hessian's inputs
    phases: np.ndarray | None = field(default=None, compare=False, repr=False)
    couplings: np.ndarray | None = field(default=None, compare=False, repr=False)

    def label(self) -> str:
        """How an error names this eigenpair."""
        return f"eigenpair n={self.n}, k={self.k!r}"


def stacked(eps: Sequence[Eigenpair], name: str) -> np.ndarray:
    """One field of a batch of eigenpairs as an array with a row per
    eigenpair."""
    return np.array([getattr(ep, name) for ep in eps])


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


def _reconstruct(graph: MetricGraph, levels: Sequence[LocatedLevel]) -> list[Eigenpair]:
    """Eigenpairs at located levels, from the eigenphases, kernel vector and
    couplings each kept; NoKernel or NonSimple unless the kernel of 1 - U
    is one-dimensional at every k.

    Every level passes the same kernel check, phase alignment, trace, sign
    and residual at the located k, and the eigenpair keeps the eigenphases
    and couplings.  Nothing is decomposed, and each row is computed as it
    would be alone: every step is elementwise or reduces along a row.
    """
    k = np.array([lv.k for lv in levels], dtype=float)
    kappa = k[:, None] * np.asarray(graph.lengths) % TWO_PI
    U = evolution_matrix(graph, kappa)
    theta = stacked(levels, "phases")
    distance = np.abs(1.0 - np.exp(1j * theta))
    inside = distance < kernel_cutoff(graph, k)[:, None]
    dims = np.count_nonzero(inside, axis=1)
    for i in np.flatnonzero(dims != 1):
        if dims[i] == 0:
            raise NoKernel(f"nearest |1 - e^(i theta)| {np.min(distance[i]):.2e} at k={levels[i].k}")
        raise NonSimple(f"kernel dimension {dims[i]} at k={levels[i].k}")
    rows = np.arange(len(k))
    a = stacked(levels, "kernel")
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
    return [Eigenpair(k=float(lv.k), n=lv.n, kappa=kappa[i], amplitudes=a[i],
                      values=values[i], derivatives=derivatives[i],
                      residual=float(residual[i]), phases=theta[i], couplings=lv.couplings)
            for i, lv in enumerate(levels)]


def eigenfunction_at(graph: MetricGraph, k: float, n: int = 0) -> Eigenpair:
    """Reconstruct the (canonical, real) eigenfunction at a located k: the
    batch of one of `eigenpairs`, from one spectral frame of U(k) and its
    eigenvector of the eigenphase nearest 0, as a walk keeps them for a
    level it settled afresh.

    The kernel of 1 - U is spanned by the eigenvectors of the frame whose
    eigenphases lie within `kernel_cutoff` of 0 (as |1 - e^{i theta}|).  The
    vertex trace is the value and the outgoing derivative at the tail of
    every directed edge, indexed by directed edge.

    A kernel of dimension 0 raises NoKernel, and one of dimension 2 or more
    raises NonSimple: multiple levels, at a loop resonance or not, are never
    reconstructed.
    """
    frame = counting(graph, np.array([float(k)]), vectors=True)
    level = LocatedLevel(n, float(k), 1, 0, frame.eigenphases[0], _kernel_vectors(frame)[0])
    return _reconstruct(graph, [level])[0]


# ---------------------------------------------------------------------------
# classification


class Flags(NamedTuple):
    """The classification of a batch of eigenpairs, one entry per eigenpair."""
    generic: np.ndarray     # every vertex value and interior derivative clears its threshold
    borderline: np.ndarray  # one of those, or a loop's outside mass, within 10x of its threshold


def _band(q: np.ndarray, eps: float) -> np.ndarray:
    """Where q falls within a factor 10 of the threshold."""
    return (eps / 10.0 <= q) & (q <= eps * 10.0)


def classify_batch(graph: MetricGraph, eps: Sequence[Eigenpair],
                   thresholds: Thresholds = Thresholds()) -> Flags:
    """The classification of each eigenpair of a batch, from reductions over
    the stacked vertex traces: the only place genericity is decided.  The
    counts and star observables take a generic eigenpair as given; their
    own guards only catch eigenpairs passed to them unclassified."""
    interior_dirs = [d for v in graph.topology.interior for d in graph.outgoing[v]]
    min_val = np.min(np.abs(stacked(eps, "values")), axis=1)
    min_der = np.min(np.abs(stacked(eps, "derivatives")[:, interior_dirs]), axis=1,
                     initial=np.inf)
    borderline = _band(min_val, thresholds.value) | _band(min_der, thresholds.derivative)
    loops = list(graph.topology.loops)
    if loops:
        mass = np.abs(stacked(eps, "amplitudes")) ** 2
        total = np.sum(mass, axis=1)
        outside = np.stack([total - mass[:, 2 * i] - mass[:, 2 * i + 1] for i in loops], axis=1)
        # only ambiguous when the resonance condition is in play as well
        borderline |= np.any((np.abs(np.exp(1j * stacked(eps, "kappa")[:, loops]) - 1.0) < 1e-3)
                             & _band(outside, thresholds.support), axis=1)
    return Flags(generic=(min_val > thresholds.value) & (min_der > thresholds.derivative),
                 borderline=borderline)


def classify(graph: MetricGraph, ep: Eigenpair,
             thresholds: Thresholds = Thresholds()) -> Flags:
    """The classification of one eigenpair, as Python bools: the batch of
    one of `classify_batch`."""
    return Flags(*(x[0].item() for x in classify_batch(graph, [ep], thresholds)))


# ---------------------------------------------------------------------------
# parallel localization and the eigenpair stream


def _pool_windows(graph: MetricGraph, count: int | None, k_max: float | None,
                  workers: int, couplings: bool) -> Iterator[LocatedLevel]:
    """The levels holding `count` eigenvalues, or those up to the exact
    count at k_max, in `workers` windows walked on a process pool.  The
    windows split the count at `_split`'s edges, as a sweep splits it into
    lanes: each starts at its lower edge, where its walk reads the count,
    and takes the eigenvalues up to the next edge's count, the last up to
    the count asked for.  BracketAuditFailed unless the windows' levels run
    consecutively in n."""
    from concurrent.futures import ProcessPoolExecutor  # only a pool loads it

    walk = Walk(graph)   # from k -> 0+, where the count is 0
    if k_max is not None:
        count = walk._count_to(k_max)
    edges, _, counts = _split(walk.ctr, walk.lo, 0, count, workers)
    starts = [0.0, *edges.tolist()]
    shares = np.diff([0, *counts.tolist(), count]).tolist()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # locate_spectrum(graph, count=share, k_max=None, k_min=start,
        #                 couplings=couplings)
        windows = pool.map(locate_spectrum, repeat(graph), shares, repeat(None),
                           starts, repeat(couplings))
        levels = [lv for window in windows for lv in window]
    n = 1
    for lv in levels:
        if lv.n != n:
            raise BracketAuditFailed(
                f"level n={lv.n} at k={lv.k} follows count {n - 1} across the "
                "pool's windows")
        n += lv.multiplicity
    yield from levels


def stream_levels(graph: MetricGraph, count: int | None = None,
                  k_max: float | None = None, workers: int = 1,
                  couplings: bool = False) -> Iterator[LocatedLevel]:
    """Levels in order: whole levels up to the first `count` eigenvalues,
    or all in (0, k_max]; ValueError unless exactly one of them is given.

    One worker walks the spectrum in-process (`Walk`), a sweep of lanes at
    a time as the levels are asked for.  More split the count (for k_max,
    the exact count there) into `workers` windows with the lanes' splitter
    and walk each in lanes on a process pool (`_pool_windows`).  Window and
    lane edges are moved clear of the spectrum and carry exact counts, so
    the levels do not depend on the split.  `couplings` is the `Walk`'s.
    """
    if (count is None) == (k_max is None):
        raise ValueError("specify exactly one of count, k_max")
    if workers > 1 and (k_max is None or k_max > 0.0):
        return _pool_windows(graph, count, k_max, workers, couplings)
    walk = Walk(graph, couplings=couplings)
    return walk.take(count) if count is not None else walk.until(k_max)


def eigenpairs(graph: MetricGraph, levels: list[LocatedLevel],
               thresholds: Thresholds = Thresholds()) -> list[tuple]:
    """(level, eigenpair, generic, reason) per level of a walk, the simple
    levels off every loop resonance reconstructed as one batch from the
    kernels they kept (`_reconstruct`) and classified by `classify_batch`;
    other levels carry no eigenpair and are not generic (at a resonance the
    loop state is the eigenfunction, so none is reconstructed).  Levels
    walked with `couplings` give their eigenpairs the flux couplings
    magnetic indices need.  The level's `loop_dims`, decided as it is
    located, is the only loop decision.  NoKernel or NonSimple at any level
    is raised for the whole batch.

    `generic` is the verdict of `classify_batch`, a bool.  `reason` is None
    for a generic eigenpair that is not borderline, or else one of
      loop_supported      every kernel direction is a loop state
      degenerate_at_loop  a multiple level holding loop states and more
      non_simple          a multiple level away from loop resonances
      borderline          a classification within a factor 10 of a threshold
      non_generic         a vertex value or interior derivative is below its threshold
    """
    simple = [lv for lv in levels if lv.multiplicity == 1 and not lv.loop_dims]
    built = iter(())
    if simple:
        eps = _reconstruct(graph, simple)
        flags = classify_batch(graph, eps, thresholds)
        built = zip(eps, flags.generic.tolist(), flags.borderline.tolist())
    out = []
    for lv in levels:
        if lv.multiplicity > 1 or lv.loop_dims:
            out.append((lv, None, False,
                        "loop_supported" if lv.loop_dims == lv.multiplicity
                        else "degenerate_at_loop" if lv.loop_dims else "non_simple"))
            continue
        ep, generic, borderline = next(built)
        out.append((lv, ep, generic,
                    "borderline" if borderline else None if generic else "non_generic"))
    return out


def stream_batches(graph: MetricGraph, count: int | None = None,
                   k_max: float | None = None,
                   thresholds: Thresholds = Thresholds(),
                   workers: int = 1, couplings: bool = False) -> Iterator[list[tuple]]:
    """`eigenpairs` of consecutive batches of `stack_size(graph)` levels of
    `stream_levels` (in-process, or in `workers` pool windows); a batch is
    located in full before it is yielded.  With `couplings` the levels are
    walked for what magnetic indices need."""
    levels = stream_levels(graph, count, k_max, workers, couplings)
    size = stack_size(graph)
    while batch := list(islice(levels, size)):
        yield eigenpairs(graph, batch, thresholds)


def stream_eigenpairs(graph: MetricGraph, count: int | None = None,
                      k_max: float | None = None,
                      thresholds: Thresholds = Thresholds(),
                      workers: int = 1) -> Iterator[tuple]:
    """The items of `stream_batches`, one (level, eigenpair, generic,
    reason) at a time."""
    for batch in stream_batches(graph, count, k_max, thresholds, workers):
        yield from batch
