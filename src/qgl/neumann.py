"""Neumann points, Neumann domains, and per-vertex star observables.

Above the wavelength threshold k > pi / l_min every edge carries an interior
critical point, so the partition consists of exactly one star domain around
each interior vertex plus segments of length pi / k.  The spectral position
and wavelength capacity of a star are evaluated by the closed vertex-trace
formulas; segments have both equal to 1.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .counts import CountRecord, Counts
from .errors import IdentityViolated, NotGeneric, NotStarRegime
from .graphs import MetricGraph
from .spectrum import Eigenpair, stacked


def offset_atan(x):
    """arctan with range (0, pi/2) for x > 0 and (pi/2, pi) for x < 0,
    elementwise."""
    x = np.asarray(x)
    if np.any(x == 0.0):
        raise NotGeneric("offset arctan undefined at 0")
    t = np.arctan(x)
    return np.where(x > 0, t, np.pi + t)


def neumann_points_on_edge(graph: MetricGraph, ep: Eigenpair, edge: int) -> list[float]:
    """Arc-length positions (measured from the edge tail) of the interior
    critical points of the eigenfunction on this edge."""
    # profile from the tail: f(x) = value cos(kx) + derivative sin(kx)
    first = np.arctan2(ep.derivatives[2 * edge], ep.values[2 * edge]) % np.pi
    length = graph.lengths[edge]
    # a boundary endpoint is itself flat, so roundoff can park a critical
    # point on top of it; keep a small exclusion zone at both ends
    eps = 1e-7 / ep.k
    out = []
    m = 0
    if first == 0.0:
        first = np.pi
    while True:
        x = (first + m * np.pi) / ep.k
        if x >= length - eps:
            break
        if x > eps:
            out.append(x)
        m += 1
    return out


@dataclass
class StarDomain:
    vertex: int
    stub_lengths: dict[int, float]      # directed edge -> length towards v
    N: int
    rho: float


@dataclass
class NeumannPartition:
    k: float
    points: list[tuple[int, float]]     # (edge, arc-length position)
    stars: dict[int, StarDomain]
    segment_count: int
    star_regime: bool

    @property
    def domain_count(self) -> int:
        return len(self.stars) + self.segment_count


def stars_batch(graph: MetricGraph, eps: Sequence[Eigenpair],
                vertices: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(N, rho): the spectral positions and wavelength capacities of the star
    domains around interior vertices (columns; every interior vertex in
    order by default) for each eigenpair of a batch (rows), from vertex trace
    data alone, with their bounds checked row by row."""
    star_threshold = graph.star_threshold
    for ep in eps:
        if ep.k <= star_threshold:
            raise NotStarRegime(f"{ep.label()}: k below pi/l_min={star_threshold}")
    if vertices is None:
        vertices = graph.topology.interior
    values, derivatives = stacked(eps, "values"), stacked(eps, "derivatives")
    N = np.empty((len(eps), len(vertices)), dtype=int)
    rho = np.empty((len(eps), len(vertices)))
    for j, v in enumerate(vertices):
        if v not in set(graph.topology.interior):
            raise ValueError(f"vertex {v} is not interior")
        deg = graph.degrees[v]
        dirs = list(graph.outgoing[v])
        value = values[:, dirs]
        prod = value * derivatives[:, dirs]
        if np.any(prod == 0.0):
            i, m = np.argwhere(prod == 0.0)[0]
            raise NotGeneric(f"{eps[i].label()}: vertex {v}: trace vanishes "
                             f"on edge {dirs[m] // 2}")
        # deg and the sign sum share parity, so this is exact integer arithmetic
        N[:, j] = (deg - np.sum(np.where(prod > 0, 1, -1), axis=1)) // 2
        # float_power rounds the square as libm pow does, which numpy's
        # array square does not always; it keeps the capacities bit for bit
        terms = offset_atan(prod / np.float_power(value, 2.0))
        total = 0.0
        for m in range(deg):
            total = total + terms[:, m]
        rho[:, j] = total / np.pi
        lo, hi = (N[:, j] + 1) / 2, (N[:, j] + deg - 1) / 2
        bad = (N[:, j] < 1) | (N[:, j] > deg - 1)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise IdentityViolated(f"{eps[i].label()}: vertex {v}: spectral "
                                   f"position {N[i, j]} outside [1, {deg - 1}]")
        # the bounds are attained in the limit of extreme trace ratios, so
        # allow a small numerical margin around them
        bad = (rho[:, j] < lo - 1e-6) | (rho[:, j] > hi + 1e-6)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise IdentityViolated(
                f"{eps[i].label()}: vertex {v}: capacity {rho[i, j]} outside "
                f"[{lo[i]}, {hi[i]}] for position {N[i, j]}")
    return N, rho


def star_observables(graph: MetricGraph, ep: Eigenpair, vertex: int) -> tuple[int, float]:
    """(spectral position, wavelength capacity) of the star domain around an
    interior vertex: the batch of one of `stars_batch`."""
    N, rho = stars_batch(graph, [ep], [vertex])
    return N.item(), rho.item()


def partition(graph: MetricGraph, ep: Eigenpair) -> NeumannPartition:
    if ep.flags is not None and not ep.flags.generic:
        raise NotGeneric(f"eigenpair n={ep.n} is not generic")
    star_regime = ep.k > graph.star_threshold
    boundary = set(graph.topology.boundary)

    points: list[tuple[int, float]] = []
    segment_count = 0
    per_edge: dict[int, list[float]] = {}
    for i in range(graph.E):
        xs = neumann_points_on_edge(graph, ep, i)
        per_edge[i] = xs
        points.extend((i, x) for x in xs)
        if star_regime and not xs:
            raise IdentityViolated(
                f"edge {i} has no interior critical point although "
                f"k={ep.k} > pi/l_min")
        # segments strictly between consecutive critical points
        segment_count += max(len(xs) - 1, 0)
        # a stub ending at a boundary vertex is a segment as well
        e = graph.edges[i]
        if e.tail in boundary and xs:
            segment_count += 1
        if e.head in boundary and xs:
            segment_count += 1

    stars: dict[int, StarDomain] = {}
    if star_regime:
        N, rho = stars_batch(graph, [ep])
        for v, N_v, rho_v in zip(graph.topology.interior, N[0].tolist(), rho[0].tolist()):
            stubs: dict[int, float] = {}
            for d in graph.outgoing[v]:
                i = d // 2
                xs = per_edge[i]
                if d % 2 == 0:
                    stubs[d] = xs[0]
                else:
                    stubs[d] = graph.lengths[i] - xs[-1]
            stars[v] = StarDomain(vertex=v, stub_lengths=stubs, N=N_v, rho=rho_v)

    return NeumannPartition(k=ep.k, points=points, stars=stars,
                            segment_count=segment_count, star_regime=star_regime)


@dataclass
class LocalGlobalReport:
    n: int
    k: float
    sum_positions: int
    position_identity_rhs: int
    sum_capacities: float
    capacity_identity_rhs: float
    ok: bool


class SumRules(NamedTuple):
    """Both sides of the two sum rules, and whether both hold, per eigenpair."""
    sum_positions: np.ndarray
    position_identity_rhs: np.ndarray
    sum_capacities: np.ndarray
    capacity_identity_rhs: np.ndarray
    ok: np.ndarray


def sum_rules(graph: MetricGraph, counts: Counts, N: np.ndarray,
              rho: np.ndarray) -> SumRules:
    """The two sum rules tying the per-vertex observables of a batch
    (`stars_batch` over every interior vertex) to its global counts, row by
    row."""
    star_threshold = graph.star_threshold
    if np.any(counts.k <= star_threshold):
        k = counts.k[np.argmax(counts.k <= star_threshold)]
        raise NotStarRegime(f"k={k} below star-regime threshold")
    nb = len(graph.topology.boundary)
    # capacities summed vertex by vertex, in order
    sum_rho = 0.0
    for column in rho.T:
        sum_rho = sum_rho + column
    rhs_N = counts.phi - counts.mu + graph.E - nb
    rhs_rho = graph.total_length * counts.k / np.pi - counts.mu + graph.E - nb
    sum_N = np.sum(N, axis=1)
    ok = (sum_N == rhs_N) & (np.abs(sum_rho - rhs_rho)
                             <= 1e-8 * np.maximum(1.0, np.abs(rhs_rho)))
    return SumRules(sum_N, rhs_N, sum_rho, rhs_rho, ok)


def local_global_check(graph: MetricGraph, ep: Eigenpair, record: CountRecord,
                       part: NeumannPartition | None = None) -> LocalGlobalReport:
    """The sum rules of one eigenpair over the stars of `part` (or of its
    partition), the batch of one of `sum_rules`; IdentityViolated unless
    they hold."""
    if ep.k <= graph.star_threshold:
        raise NotStarRegime(f"k={ep.k} below star-regime threshold")
    stars = (part or partition(graph, ep)).stars.values()
    rules = sum_rules(graph, Counts(*map(np.atleast_1d, astuple(record))),
                      np.array([[s.N for s in stars]]), np.array([[s.rho for s in stars]]))
    report = LocalGlobalReport(ep.n, ep.k, *(x.item() for x in rules))
    if not report.ok:
        raise IdentityViolated(str(report))
    return report
