"""Neumann points, Neumann domains, and per-vertex star observables.

Above the wavelength threshold k > pi / l_min every edge carries an interior
critical point, so the partition consists of exactly one star domain around
each interior vertex plus segments of length pi / k.  The spectral position
and wavelength capacity of a star are evaluated by the closed vertex-trace
formulas; segments have both equal to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import CountRecord
from .errors import IdentityViolated, NotGeneric, NotStarRegime
from .graphs import MetricGraph
from .spectrum import Eigenpair


def offset_atan(x: float) -> float:
    """arctan with range (0, pi/2) for x > 0 and (pi/2, pi) for x < 0."""
    if x == 0.0:
        raise NotGeneric("offset arctan undefined at 0")
    return float(np.arctan(x)) if x > 0 else float(np.pi + np.arctan(x))


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


def star_observables(graph: MetricGraph, ep: Eigenpair, vertex: int) -> tuple[int, float]:
    """(spectral position, wavelength capacity) of the star domain around an
    interior vertex, from vertex trace data alone."""
    if ep.k <= np.pi / graph.min_length:
        raise NotStarRegime(
            f"k={ep.k} below pi/l_min={np.pi / graph.min_length}")
    if vertex not in set(graph.topology.interior):
        raise ValueError(f"vertex {vertex} is not interior")
    deg = graph.degrees[vertex]
    sign_sum = 0
    rho = 0.0
    for d in graph.outgoing[vertex]:
        value = ep.values[d]
        prod = value * ep.derivatives[d]
        if prod == 0.0 or abs(value) == 0.0:
            raise NotGeneric(f"vertex {vertex}: trace vanishes on edge {d // 2}")
        sign_sum += 1 if prod > 0 else -1
        rho += offset_atan(prod / value ** 2)
    # deg and sign_sum share parity, so this is exact integer arithmetic
    N = (deg - sign_sum) // 2
    rho /= np.pi
    if not 1 <= N <= deg - 1:
        raise IdentityViolated(
            f"vertex {vertex}: spectral position {N} outside [1, {deg - 1}]")
    # the bounds are attained in the limit of extreme trace ratios, so allow
    # a small numerical margin around them
    if not (N + 1) / 2 - 1e-6 <= rho <= (N + deg - 1) / 2 + 1e-6:
        raise IdentityViolated(
            f"vertex {vertex}: capacity {rho} outside "
            f"[{(N + 1) / 2}, {(N + deg - 1) / 2}] for position {N}")
    return N, rho


def partition(graph: MetricGraph, ep: Eigenpair) -> NeumannPartition:
    if ep.flags is not None and not ep.flags.generic:
        raise NotGeneric(f"eigenpair n={ep.n} is not generic")
    star_regime = ep.k > np.pi / graph.min_length
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
        for v in graph.topology.interior:
            stubs: dict[int, float] = {}
            for d in graph.outgoing[v]:
                i = d // 2
                xs = per_edge[i]
                if d % 2 == 0:
                    stubs[d] = xs[0]
                else:
                    stubs[d] = graph.lengths[i] - xs[-1]
            N, rho = star_observables(graph, ep, v)
            stars[v] = StarDomain(vertex=v, stub_lengths=stubs, N=N, rho=rho)

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


def local_global_check(graph: MetricGraph, ep: Eigenpair, record: CountRecord,
                       part: NeumannPartition | None = None,
                       raise_on_violation: bool = True,
                       stars: dict[int, tuple[int, float]] | None = None
                       ) -> LocalGlobalReport:
    """The two sum rules tying per-vertex observables to global counts, over
    `stars` (vertex -> `star_observables`) or else the stars of `part`."""
    if ep.k <= np.pi / graph.min_length:
        raise NotStarRegime(f"k={ep.k} below star-regime threshold")
    if stars is None:
        stars = {v: (s.N, s.rho)
                 for v, s in (part or partition(graph, ep)).stars.items()}
    topo = graph.topology
    nb = len(topo.boundary)
    sum_N = sum(N for N, _ in stars.values())
    sum_rho = sum(rho for _, rho in stars.values())
    rhs_N = record.phi - record.mu + graph.E - nb
    rhs_rho = graph.total_length * ep.k / np.pi - record.mu + graph.E - nb
    ok = (sum_N == rhs_N) and abs(sum_rho - rhs_rho) <= 1e-8 * max(1.0, abs(rhs_rho))
    report = LocalGlobalReport(
        n=ep.n, k=ep.k, sum_positions=sum_N, position_identity_rhs=rhs_N,
        sum_capacities=sum_rho, capacity_identity_rhs=rhs_rho, ok=ok)
    if raise_on_violation and not ok:
        raise IdentityViolated(str(report))
    return report
